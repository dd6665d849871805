(** Hooks: the units of selective instrumentation ({!group}) and the
    monomorphic low-level hook specifications ({!spec}) generated
    on demand during instrumentation (paper, Sections 2.4.2 and 2.4.3).

    A {e group} is what an analysis declares interest in ("instrument all
    [binary] instructions") — the x-axis of Figures 8 and 9. A {e spec}
    identifies one generated low-level hook: one per instruction mnemonic
    and, for type-polymorphic instructions, per concrete type variant. *)

open Wasm.Types

(** Selective-instrumentation groups, in the order of the paper's
    Figures 8 and 9 (plus [G_start], which has no figure column). *)
type group =
  | G_nop
  | G_unreachable
  | G_memory_size
  | G_memory_grow
  | G_select
  | G_drop
  | G_load
  | G_store
  | G_call
  | G_return
  | G_const
  | G_unary
  | G_binary
  | G_global
  | G_local
  | G_begin
  | G_end
  | G_if
  | G_br
  | G_br_if
  | G_br_table
  | G_start

let all_groups =
  [ G_nop; G_unreachable; G_memory_size; G_memory_grow; G_select; G_drop;
    G_load; G_store; G_call; G_return; G_const; G_unary; G_binary; G_global;
    G_local; G_begin; G_end; G_if; G_br; G_br_if; G_br_table; G_start ]

(** The 21 groups shown on the x-axis of Figures 8 and 9. *)
let figure_groups = List.filter (fun g -> g <> G_start) all_groups

let group_name = function
  | G_nop -> "nop"
  | G_unreachable -> "unreachable"
  | G_memory_size -> "memory_size"
  | G_memory_grow -> "memory_grow"
  | G_select -> "select"
  | G_drop -> "drop"
  | G_load -> "load"
  | G_store -> "store"
  | G_call -> "call"
  | G_return -> "return"
  | G_const -> "const"
  | G_unary -> "unary"
  | G_binary -> "binary"
  | G_global -> "global"
  | G_local -> "local"
  | G_begin -> "begin"
  | G_end -> "end"
  | G_if -> "if"
  | G_br -> "br"
  | G_br_if -> "br_if"
  | G_br_table -> "br_table"
  | G_start -> "start"

let group_of_name s =
  match List.find_opt (fun g -> group_name g = s) all_groups with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "unknown hook group %S" s)

module Group_set = Set.Make (struct
  type t = group
  let compare = Stdlib.compare
end)

let all = Group_set.of_list all_groups
let none = Group_set.empty
let of_list = Group_set.of_list

(** The kinds of blocks visible to the [begin]/[end] hooks. *)
type block_kind =
  | Bfunction
  | Bblock
  | Bloop
  | Bif
  | Belse

let block_kind_name = function
  | Bfunction -> "function"
  | Bblock -> "block"
  | Bloop -> "loop"
  | Bif -> "if"
  | Belse -> "else"

type local_op = Lget | Lset | Ltee
type global_op = Gget | Gset

let local_op_name = function Lget -> "local.get" | Lset -> "local.set" | Ltee -> "local.tee"
let global_op_name = function Gget -> "global.get" | Gset -> "global.set"

(** One monomorphic low-level hook. Two instrumented call sites share a
    hook exactly when their specs are equal — the on-demand
    monomorphization map is keyed by this type. *)
type spec =
  | S_nop
  | S_unreachable
  | S_if_cond
  | S_br
  | S_br_if
  | S_br_table
  | S_begin of block_kind
  | S_end of block_kind
  | S_const of value_type
  | S_drop of value_type
  | S_select of value_type
  | S_unary of string * value_type * value_type  (** mnemonic, input, result *)
  | S_binary of string * value_type * value_type * value_type
  | S_local of local_op * value_type
  | S_global of global_op * value_type
  | S_load of string * value_type
  | S_store of string * value_type
  | S_memory_size
  | S_memory_grow
  | S_call_pre of value_type list * bool  (** argument types; [true] for indirect calls *)
  | S_call_post of value_type list  (** result types *)
  | S_return of value_type list
  | S_start

let group_of_spec = function
  | S_nop -> G_nop
  | S_unreachable -> G_unreachable
  | S_if_cond -> G_if
  | S_br -> G_br
  | S_br_if -> G_br_if
  | S_br_table -> G_br_table
  | S_begin _ -> G_begin
  | S_end _ -> G_end
  | S_const _ -> G_const
  | S_drop _ -> G_drop
  | S_select _ -> G_select
  | S_unary _ -> G_unary
  | S_binary _ -> G_binary
  | S_local _ -> G_local
  | S_global _ -> G_global
  | S_load _ -> G_load
  | S_store _ -> G_store
  | S_memory_size -> G_memory_size
  | S_memory_grow -> G_memory_grow
  | S_call_pre _ | S_call_post _ -> G_call
  | S_return _ -> G_return
  | S_start -> G_start

(** i64 values cannot cross the host boundary of a JavaScript host
    (paper, Section 2.4.6): a single i64 hook argument becomes two i32
    parameters (low, high). With [split = false] (the ablation for
    native hosts) i64 arguments pass through unchanged. *)
let flatten_type_with ~split = function
  | I64T when split -> [ I32T; I32T ]
  | t -> [ t ]

let flatten_type = flatten_type_with ~split:true

(** The types of a hook's arguments after the location, one per logical
    value. *)
let args (s : spec) : value_type list =
  match s with
  | S_nop | S_unreachable | S_start | S_begin _ -> []
  | S_if_cond -> [ I32T ]  (* condition *)
  | S_br -> [ I32T; I32T ]  (* label, resolved target *)
  | S_br_if -> [ I32T; I32T; I32T ]  (* label, resolved target, condition *)
  | S_br_table -> [ I32T ]  (* runtime table index *)
  | S_end _ -> [ I32T ]  (* instruction index of the matching begin *)
  | S_const t | S_drop t -> [ t ]
  | S_select t -> [ I32T; t; t ]  (* cond, first, second *)
  | S_unary (_, i, r) -> [ i; r ]
  | S_binary (_, a, b, r) -> [ a; b; r ]
  | S_local (_, t) | S_global (_, t) -> [ I32T; t ]  (* index, value *)
  | S_load (_, t) | S_store (_, t) -> [ I32T; I32T; t ]  (* addr, offset, value *)
  | S_memory_size -> [ I32T ]  (* current size *)
  | S_memory_grow -> [ I32T; I32T ]  (* delta, previous size *)
  | S_call_pre (tys, _indirect) -> I32T :: tys  (* callee / table idx, args *)
  | S_call_post tys | S_return tys -> tys

(** The Wasm-level signature of the imported hook function. Every hook
    takes the two i32 location parameters first. *)
let signature ?(split_i64 = true) (s : spec) : func_type =
  func_type (I32T :: I32T :: List.concat_map (flatten_type_with ~split:split_i64) (args s)) []

let type_suffix tys =
  match tys with
  | [] -> ""
  | _ -> "_" ^ String.concat "_" (List.map string_of_value_type tys)

(** Import name of the generated hook, e.g. ["i32.add"], ["drop_i64"],
    ["call_pre_i32_f64"], ["begin_loop"]. *)
let name (s : spec) : string =
  match s with
  | S_nop -> "nop"
  | S_unreachable -> "unreachable"
  | S_if_cond -> "if"
  | S_br -> "br"
  | S_br_if -> "br_if"
  | S_br_table -> "br_table"
  | S_begin k -> "begin_" ^ block_kind_name k
  | S_end k -> "end_" ^ block_kind_name k
  | S_const t -> string_of_value_type t ^ ".const"
  | S_drop t -> "drop" ^ type_suffix [ t ]
  | S_select t -> "select" ^ type_suffix [ t ]
  | S_unary (op, _, _) -> op
  | S_binary (op, _, _, _) -> op
  | S_local (op, t) -> local_op_name op ^ type_suffix [ t ]
  | S_global (op, t) -> global_op_name op ^ type_suffix [ t ]
  | S_load (op, _) -> op
  | S_store (op, _) -> op
  | S_memory_size -> "memory.size"
  | S_memory_grow -> "memory.grow"
  | S_call_pre (tys, indirect) ->
    (if indirect then "call_pre_indirect" else "call_pre") ^ type_suffix tys
  | S_call_post tys -> "call_post" ^ type_suffix tys
  | S_return tys -> "return" ^ type_suffix tys
  | S_start -> "start"

(** Flattened Wasm-level parameter count of the hook, including the two
    location slots — the arity of a compiled dispatch decoder. *)
let param_count ?split_i64 (s : spec) : int =
  List.length (signature ?split_i64 s).params

(** Import module name under which all hooks are imported. *)
let import_module = "wasabi_hooks"

(** The on-demand monomorphization map (paper, Section 2.4.3): hooks are
    generated lazily, keyed by {!spec}; each receives a stable ordinal in
    generation order.

    The map is the only state shared between functions during
    instrumentation, so — as in the paper's Section 3, where it is guarded
    by a readers/writer lock — it is protected by a mutex, allowing
    functions to be instrumented in parallel. *)
module Map = struct
  type t = {
    tbl : (spec, int) Hashtbl.t;
    mutable order : spec list;  (** reversed *)
    mutable next : int;
    reqs : (spec, int ref) Hashtbl.t;
        (** instrumentation sites that requested each spec; requests
            beyond the first are monomorphization-cache hits *)
    lock : Mutex.t;
  }

  let create () =
    { tbl = Hashtbl.create 64; order = []; next = 0;
      reqs = Hashtbl.create 64; lock = Mutex.create () }

  (** Ordinal of [s], generating the hook on first request. Thread safe. *)
  let ordinal t s =
    Mutex.lock t.lock;
    let k =
      match Hashtbl.find_opt t.tbl s with
      | Some k -> k
      | None ->
        let k = t.next in
        Hashtbl.add t.tbl s k;
        t.order <- s :: t.order;
        t.next <- k + 1;
        k
    in
    Mutex.unlock t.lock;
    k

  let count t =
    Mutex.lock t.lock;
    let n = t.next in
    Mutex.unlock t.lock;
    n

  (** All generated specs, in ordinal order. *)
  let specs t =
    Mutex.lock t.lock;
    let order = t.order in
    Mutex.unlock t.lock;
    Array.of_list (List.rev order)

  (** Record a batch of per-spec request counts (one instrumented
      function's worth) under a single lock acquisition, so the parallel
      instrumentation path is not serialized per site. *)
  let note_requests t (batch : (spec * int) list) =
    Mutex.lock t.lock;
    List.iter
      (fun (s, n) ->
         match Hashtbl.find_opt t.reqs s with
         | Some r -> r := !r + n
         | None -> Hashtbl.add t.reqs s (ref n))
      batch;
    Mutex.unlock t.lock

  (** Requests per generated spec, in ordinal order. Readers take the
      lock too: these run while parallel instrumentation domains may
      still be noting requests. *)
  let requests t =
    Mutex.lock t.lock;
    let rows =
      List.rev_map
        (fun s ->
           (s, match Hashtbl.find_opt t.reqs s with Some r -> !r | None -> 0))
        t.order
    in
    Mutex.unlock t.lock;
    Array.of_list rows

  let total_requests t =
    Mutex.lock t.lock;
    let n = Hashtbl.fold (fun _ r acc -> acc + !r) t.reqs 0 in
    Mutex.unlock t.lock;
    n

  (** Cache hits: sites that found their hook already generated. *)
  let hits t = max 0 (total_requests t - count t)

  (** Cache misses, i.e. hooks actually generated. *)
  let misses t = count t
end

(** Number of monomorphic hooks eager generation would need for calls with
    up to [max_params] parameters (the 4^n explosion the paper's Section
    2.4.3 argues against). Returns a float because the count overflows
    quickly. *)
let eager_call_hook_count ~max_params =
  let rec go n acc total = if n > max_params then total else go (n + 1) (acc *. 4.0) (total +. acc *. 4.0) in
  go 1 1.0 1.0  (* 1 for the zero-argument variant *)
