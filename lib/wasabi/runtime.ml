(** The Wasabi runtime: provides the imported low-level hook functions and
    dispatches them to the high-level analysis API.

    This is the OCaml equivalent of the generated JavaScript of the
    original tool: low-level hooks are monomorphic host functions that
    decode their arguments (re-joining split i64 halves), attach
    pre-computed static information from {!Metadata} (resolved branch
    targets, [br_table] entries, indirect call targets) and invoke the
    user's {!Analysis.t} callbacks.

    {!compile} is the one per-spec decoder: it compiles a monomorphized
    hook spec {e once} into a specialized closure, with arity, argument
    slots, i64 split/join, op-name strings and [br_table] metadata
    pre-resolved, over an {!env} and one of three argument sources: the
    interpreter's operand-stack buffer (the array ABI of
    {!Wasm.Interp.host_func_raw}); a tier-1 call site that binds
    ({!Wasm.Interp.site_binder}), read in place with every
    constant-derived value computed at binding; or an event of the
    {!Plan} that the engine-probe backend ({!Probe}) lowers. The
    original interpretive [take_*]-chain over an argument list is kept
    as the {b reference} decoder ([~decoder:`Reference]), the oracle of
    [test/test_decoders.ml], which checks that both produce identical
    high-level hook invocations across the whole corpus. *)

open Wasm
open Wasm.Types

type decoder_kind = [ `Compiled | `Reference ]

(** What a backend binds an analysis with: the analysis, the same
    analysis with every callback wrapped to record [mark], and the
    profiler slot. While a profiler is attached, every dispatch is timed
    and goes to [marked], whose first callback entry splits the time
    into marshalling and user analysis code. *)
type binding = {
  analysis : Analysis.t;
  marked : Analysis.t;
  mark : int64 ref;
      (** first analysis-callback entry time of the current profiled
          dispatch, or [-1L] *)
  prof : Obs.Profile.t option ref;
}

type t = {
  metadata : Metadata.t;
  decoder : decoder_kind;
  br_index : Metadata.br_table_index;
      (** O(1) per-location [br_table] metadata, built once at creation *)
  mutable instance : Interp.instance option;
      (** the instrumented instance, needed to resolve indirect call
          targets through the table; set right after instantiation *)
  indirect_cache : int array ref;  (** per-table-slot {!resolve_indirect} results *)
  binding : binding;
}

exception Bad_hook_args = Error.Hook_error

let bad fmt = Error.hook_error ~code:"bad-hook-args" fmt

let binding analysis =
  let mark = ref (-1L) in
  (* the first callback entered during a dispatch records its entry time:
     everything before it is argument decoding, everything after it is
     the user's analysis code *)
  let marked =
    Analysis.reify (fun ev ->
      if !mark < 0L then mark := Obs.Clock.now_ns ();
      Analysis.apply analysis ev)
  in
  { analysis; marked; mark; prof = ref None }

(* a sink interposes at the analysis boundary: hooks still decode their
   arguments as usual, but the decoded invocation is reified as an
   [Analysis.event] and handed to [sink] instead of running the
   callbacks inline — the serve layer's async dispatch path *)
let sink_or ?sink analysis =
  match sink with None -> analysis | Some push -> Analysis.reify push

let create ?(decoder = `Compiled) ?sink (res : Instrument.result) (analysis : Analysis.t) : t =
  { metadata = res.metadata; decoder;
    br_index = Metadata.build_br_table_index res.metadata;
    instance = None; indirect_cache = ref [||];
    binding = binding (sink_or ?sink analysis) }

(** Attach a profiler to both the runtime (hook-dispatch accounting) and
    the instrumented instance, when one is already present. The instance
    is re-tiered, so compiled bodies rebind their hook sites ({!make_hook}
    reads the profiler state at binding). *)
let attach_profiler (rt : t) (p : Obs.Profile.t option) : unit =
  rt.binding.prof := p;
  match rt.instance with
  | Some inst ->
    Interp.set_profiler inst p;
    Interp.set_tier inst inst.inst_tier
  | None -> ()

(* halves as native ints (sign-extended or not: only the low 32 bits count) *)
let join_i64 (lo : int) (hi : int) : int64 =
  Int64.logor (Int64.logand (Int64.of_int lo) 0xFFFFFFFFL) (Int64.shift_left (Int64.of_int hi) 32)

(** {1 Reference decoders}

    Argument decoding by folding over the argument list: consume values
    according to declared types, re-joining i64 halves. This is the
    original interpretive path, kept for debugging and as the oracle the
    compiled decoders are differentially tested against. *)

let take_i32 = function
  | Value.I32 x :: rest -> (x, rest)
  | _ -> bad "expected i32"

let take_int vs =
  let x, rest = take_i32 vs in
  (Int32.to_int x, rest)

let take_bool vs =
  let x, rest = take_i32 vs in
  (not (Int32.equal x 0l), rest)

let take_value ~split ty vs =
  match ty, vs with
  | I64T, Value.I32 lo :: Value.I32 hi :: rest when split ->
    (Value.I64 (join_i64 (Int32.to_int lo) (Int32.to_int hi)), rest)
  | I64T, (Value.I64 _ as v) :: rest when not split -> (v, rest)
  | I32T, (Value.I32 _ as v) :: rest -> (v, rest)
  | F32T, (Value.F32 _ as v) :: rest -> (v, rest)
  | F64T, (Value.F64 _ as v) :: rest -> (v, rest)
  | _ -> bad "hook argument type mismatch"

let take_values ~split tys vs =
  List.fold_left
    (fun (acc, vs) ty ->
       let v, vs = take_value ~split ty vs in
       (v :: acc, vs))
    ([], vs) tys
  |> fun (acc, vs) -> (List.rev acc, vs)

let done_ = function [] -> () | _ -> bad "superfluous hook arguments"

(* cache sentinel: a table slot whose resolution has not been computed *)
let unresolved = min_int

(** Original-module index of the callee in table slot [tbl] of [inst],
    or [-1] when the slot is out of range or null, or holds a function
    that is neither the module's own nor one of its [n_imp] imports. The
    instance's own defined function [j] is [n_imp + j] in both backends:
    hook imports follow the original imports and are never a callee.
    Cached per slot in [cache] (MVP tables are immutable once element
    segments have been applied). *)
let resolve_indirect (inst : Interp.instance) ~n_imp (cache : int array ref) (tbl : int32) : int =
  match inst.Interp.inst_table with
  | None -> -1
  | Some table ->
    let elems = table.Interp.t_elems in
    let i = Int64.to_int (Int64.logand (Int64.of_int32 tbl) 0xFFFFFFFFL) in
    if i >= Array.length elems then -1
    else begin
      if Array.length !cache <> Array.length elems then
        cache := Array.make (Array.length elems) unresolved;
      let cached = !cache.(i) in
      if cached <> unresolved then cached
      else begin
        let r =
          match elems.(i) with
          | None -> -1
          | Some (Interp.Wasm_func (j, owner)) when owner == inst -> n_imp + j
          | Some f ->
            let rec scan k =
              if k >= n_imp then -1 else if inst.Interp.inst_funcs.(k) == f then k else scan (k + 1)
            in
            scan 0
        in
        !cache.(i) <- r;
        r
      end
    end

(** What the decoders read of their backend. *)
type env = {
  split : bool;  (** i64 arguments arrive as two i32 halves *)
  want_end : bool;  (** a [br_table] fires the [end] events of the entry it takes *)
  br_table : func:int -> instr:int -> Metadata.br_table_info option;
  resolve : int32 -> int;  (** the original callee of an indirect-call table slot *)
}

(** The AOT backend's env: the instrumentation metadata, and the
    instrumented instance's table once it is instantiated. *)
let env (rt : t) : env =
  let n_imp = rt.metadata.Metadata.num_original_func_imports in
  { split = rt.metadata.Metadata.split_i64;
    want_end = Hook.Group_set.mem Hook.G_end rt.metadata.Metadata.groups;
    br_table = Metadata.br_table_find rt.br_index;
    resolve =
      (fun tbl ->
         match rt.instance with
         | None -> -1
         | Some inst -> resolve_indirect inst ~n_imp rt.indirect_cache tbl) }

let br_table_exn env (l : Location.t) =
  match env.br_table ~func:l.Location.func ~instr:l.Location.instr with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "no br_table at %s" (Location.to_string l))

(** The reference dispatcher for one low-level hook: interpretive
    [take_*] decoding over an argument list. *)
let dispatch_reference env (a : Analysis.t) (spec : Hook.spec) : Value.t list -> unit =
  let split = env.split in
  let take_value = take_value ~split in
  let take_values = take_values ~split in
  fun args ->
    let fidx, args = take_int args in
    let instr, args = take_int args in
    let loc = Location.make ~func:fidx ~instr in
    match spec with
    | Hook.S_nop -> done_ args; a.nop loc
    | S_unreachable -> done_ args; a.unreachable loc
    | S_start -> done_ args; a.start loc
    | S_if_cond ->
      let cond, args = take_bool args in
      done_ args;
      a.if_ loc cond
    | S_br ->
      let label, args = take_int args in
      let target, args = take_int args in
      done_ args;
      a.br loc { Metadata.label; target_loc = Location.make ~func:fidx ~instr:target }
    | S_br_if ->
      let label, args = take_int args in
      let target, args = take_int args in
      let cond, args = take_bool args in
      done_ args;
      a.br_if loc { Metadata.label; target_loc = Location.make ~func:fidx ~instr:target } cond
    | S_br_table ->
      let idx, args = take_int args in
      done_ args;
      let info = br_table_exn env loc in
      let targets = Array.map fst info.Metadata.bt_targets in
      let default = fst info.Metadata.bt_default in
      a.br_table loc targets default idx;
      (* the blocks ended by the selected entry, known only at runtime *)
      if env.want_end then begin
        (* the index is an unsigned i32: negative here means >= 2^31,
           which is out of range and takes the default *)
        let _, ended =
          if idx >= 0 && idx < Array.length info.Metadata.bt_targets then
            info.Metadata.bt_targets.(idx)
          else info.Metadata.bt_default
        in
        List.iter
          (fun (eb : Metadata.ended_block) ->
             a.end_ eb.Metadata.eb_end_loc eb.eb_kind
               (Location.make ~func:fidx ~instr:eb.eb_begin_instr))
          ended
      end
    | S_begin kind -> done_ args; a.begin_ loc kind
    | S_end kind ->
      let begin_instr, args = take_int args in
      done_ args;
      a.end_ loc kind (Location.make ~func:fidx ~instr:begin_instr)
    | S_const ty ->
      let v, args = take_value ty args in
      done_ args;
      a.const loc v
    | S_drop ty ->
      let v, args = take_value ty args in
      done_ args;
      a.drop loc v
    | S_select ty ->
      let cond, args = take_bool args in
      let v1, args = take_value ty args in
      let v2, args = take_value ty args in
      done_ args;
      a.select loc cond v1 v2
    | S_unary (op, ity, rty) ->
      let input, args = take_value ity args in
      let result, args = take_value rty args in
      done_ args;
      a.unary loc op input result
    | S_binary (op, aty, bty, rty) ->
      let x, args = take_value aty args in
      let y, args = take_value bty args in
      let r, args = take_value rty args in
      done_ args;
      a.binary loc op x y r
    | S_local (op, ty) ->
      let idx, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.local loc (Hook.local_op_name op) idx v
    | S_global (op, ty) ->
      let idx, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.global loc (Hook.global_op_name op) idx v
    | S_load (op, ty) ->
      let addr, args = take_i32 args in
      let offset, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.load loc op { Analysis.addr; offset } v
    | S_store (op, ty) ->
      let addr, args = take_i32 args in
      let offset, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.store loc op { Analysis.addr; offset } v
    | S_memory_size ->
      let size, args = take_int args in
      done_ args;
      a.memory_size loc size
    | S_memory_grow ->
      let delta, args = take_int args in
      let prev, args = take_int args in
      done_ args;
      a.memory_grow loc delta prev
    | S_call_pre (tys, indirect) ->
      let callee_or_table, args = take_i32 args in
      let vs, args = take_values tys args in
      done_ args;
      if indirect then
        let callee = env.resolve callee_or_table in
        a.call_pre loc callee vs (Some (Int32.to_int callee_or_table))
      else a.call_pre loc (Int32.to_int callee_or_table) vs None
    | S_call_post tys ->
      let vs, args = take_values tys args in
      done_ args;
      a.call_post loc vs
    | S_return tys ->
      let vs, args = take_values tys args in
      done_ args;
      a.return_ loc vs

(** {1 Compiled decoders}

    Every monomorphized hook spec is compiled once into a specialized
    closure over an {e argument source}: readers specialised, at compile
    time, to a fixed argument slot [k] (slots 0 and 1 are the location's
    function and instruction indices; the location itself is handed in
    by the caller). On the array ABI the source reads the operand-stack
    slice ([Interp.call_host] enforces the arity, so reads are
    unchecked); at a tier-1 call site bound by {!Interp.site_binder} it
    reads the site's constants and the caller frame's locals in place;
    at a probe site it reads the plan event's arguments. A constant
    argument is a {!Const} reader, and everything computed from
    constants only — the [br]/[br_if] target record, the [br_table]
    metadata — is computed once, when the decoder compiles. *)

(** A reader of one argument out of a two-part environment: the stack
    buffer and argument offset on the array ABI, the caller's frame (and
    [()]) at a bound site, the frame's locals (and [()]) at a probe site.
    Two parts, so the array ABI allocates nothing per call. *)
type ('a, 'b, 'x) arg = Const of 'x | Read of ('a -> 'b -> 'x)

type ('a, 'b) source = {
  int : int -> ('a, 'b, int) arg;  (** the i32 at slot [k], as a native int *)
  i32 : int -> ('a, 'b, int32) arg;  (** the same, as an [int32] *)
  value : value_type -> int -> ('a, 'b, Value.t) arg;
      (** the one-slot value of the given type at slot [k] *)
  joined : int -> ('a, 'b, Value.t) arg;  (** the i64 split into slots [k], [k + 1] *)
}

let get = function Const x -> fun _ _ -> x | Read r -> r
let map f = function Const x -> Const (f x) | Read r -> Read (fun a b -> f (r a b))

(* reads in argument order, like the reference [take_*] chain *)
let map2 f x y =
  match x, y with
  | Const x, Const y -> Const (f x y)
  | _ ->
    let rx = get x and ry = get y in
    Read (fun a b -> let x = rx a b in let y = ry a b in f x y)

let map3 f x y z =
  match x, y, z with
  | Const x, Const y, Const z -> Const (f x y z)
  | _ ->
    let rx = get x and ry = get y and rz = get z in
    Read (fun a b -> let x = rx a b in let y = ry a b in let z = rz a b in f x y z)

let location func instr = Location.make ~func ~instr

let slot_i32 args i = match Array.unsafe_get args i with Value.I32 x -> x | _ -> bad "expected i32"
let slot_int args i = Int32.to_int (slot_i32 args i)

(** The array ABI: arguments at [args.(off + k)], the location in slots
    0 and 1. *)
let stack_loc = Read (fun args off -> location (slot_int args off) (slot_int args (off + 1)))

let stack_source : (Value.t array, int) source =
  { int = (fun k -> Read (fun args off -> slot_int args (off + k)));
    i32 = (fun k -> Read (fun args off -> slot_i32 args (off + k)));
    joined =
      (fun k ->
         Read
           (fun args off ->
              Value.I64 (join_i64 (slot_int args (off + k)) (slot_int args (off + k + 1)))));
    value =
      (fun ty k ->
         Read
           (fun args off ->
              let v = Array.unsafe_get args (off + k) in
              if Value.type_of v == ty then v else bad "hook argument type mismatch")) }

exception Unbindable

(** A bound tier-1 call site: its constants, and readers of the caller
    frame's locals. A shape the decoder cannot take raises
    {!Unbindable}, and the site keeps the array ABI. *)
let site_source (site : 'e Interp.site_arg array) : ('e, unit) source =
  let int k =
    match site.(k) with
    | Interp.Site_const (Value.I32 x) -> Const (Int32.to_int x)
    | Site_i32 r -> Read (fun e () -> r e)
    | _ -> raise Unbindable
  in
  { int;
    i32 = (fun k -> map Int32.of_int (int k));
    joined = (fun k -> map2 (fun lo hi -> Value.I64 (join_i64 lo hi)) (int k) (int (k + 1)));
    value =
      (fun ty k ->
         match ty, site.(k) with
         | _, Interp.Site_const v when Value.type_of v == ty -> Const v
         | I32T, Site_i32 r -> Read (fun e () -> Value.I32 (Int32.of_int (r e)))
         | F64T, Site_f64 r -> Read (fun e () -> Value.F64 (r e))
         | (I64T | F32T), Site_boxed r -> Read (fun e () -> r e)
         | _ -> raise Unbindable) }

(** Reader for one typed value at slot [k], and the number of slots it
    takes: the i64 split/join decision is resolved here, once per spec. *)
let read_value src ~split ty k =
  match ty with
  | I64T when split -> (src.joined k, 2)
  | _ -> (src.value ty k, 1)

(** Reader for a typed argument tuple (call/return hooks), read first to
    last. *)
let read_values src ~split tys k0 =
  let readers, _ =
    List.fold_left
      (fun (acc, k) ty ->
         let r, w = read_value src ~split ty k in
         (r :: acc, k + w))
      ([], k0) tys
  in
  get (List.fold_left (fun tl r -> map2 List.cons r tl) (Const []) readers)

let int src k = get (src.int k)
let i32 src k = get (src.i32 k)
let bool src k = get (map (fun x -> x <> 0) (src.int k))
let value src ~split ty k = get (fst (read_value src ~split ty k))

(** The [br]/[br_if] target record: label at slot 2, target instruction
    at slot 3. *)
let target src =
  get
    (map3
       (fun func label target -> { Metadata.label; target_loc = location func target })
       (src.int 0) (src.int 2) (src.int 3))

(** Compile one monomorphized hook spec into its specialized decoder
    over [src]. Arity, slot offsets, i64 joins, op-name strings and
    everything the source has as constants are resolved here, once; the
    returned closure does no list traversal and no map walk. Argument
    reads are [let]-bound in the reference decoder's order, before any
    callback runs (not inlined into the callback application, whose
    evaluation order OCaml does not define), so the two paths are
    observationally identical. *)
let compile env (src : ('a, 'b) source) (spec : Hook.spec)
    : Analysis.t -> Location.t -> 'a -> 'b -> unit =
  let split = env.split in
  match spec with
  | Hook.S_nop -> fun (a : Analysis.t) l _ _ -> a.nop l
  | S_unreachable -> fun (a : Analysis.t) l _ _ -> a.unreachable l
  | S_start -> fun (a : Analysis.t) l _ _ -> a.start l
  | S_if_cond ->
    let cond = bool src 2 in
    fun (a : Analysis.t) l p q -> a.if_ l (cond p q)
  | S_br ->
    let target = target src in
    fun (a : Analysis.t) l p q -> a.br l (target p q)
  | S_br_if ->
    let target = target src and cond = bool src 4 in
    fun (a : Analysis.t) l p q ->
      let t = target p q in
      let c = cond p q in
      a.br_if l t c
  | S_br_table ->
    let want_end = env.want_end in
    let table =
      get
        (map2
           (fun func instr ->
              Option.map
                (fun (info : Metadata.br_table_info) ->
                   (info, Array.map fst info.bt_targets, fst info.bt_default))
                (env.br_table ~func ~instr))
           (src.int 0) (src.int 1))
    in
    let idx = int src 2 in
    fun (a : Analysis.t) l p q ->
      let i = idx p q in
      (match table p q with
       | None -> invalid_arg (Printf.sprintf "no br_table at %s" (Location.to_string l))
       | Some (info, targets, default) ->
         a.br_table l targets default i;
         if want_end then begin
           (* the index is an unsigned i32: negative here means >= 2^31,
              which is out of range and takes the default *)
           let _, ended =
             if i >= 0 && i < Array.length info.Metadata.bt_targets then
               info.Metadata.bt_targets.(i)
             else info.Metadata.bt_default
           in
           List.iter
             (fun (eb : Metadata.ended_block) ->
                a.end_ eb.Metadata.eb_end_loc eb.eb_kind
                  (location l.Location.func eb.eb_begin_instr))
             ended
         end)
  | S_begin kind -> fun (a : Analysis.t) l _ _ -> a.begin_ l kind
  (* the hottest specs take a constant argument directly, not through a
     reader call *)
  | S_end kind ->
    (match map2 location (src.int 0) (src.int 2) with
     | Const b -> fun (a : Analysis.t) l _ _ -> a.end_ l kind b
     | Read b -> fun (a : Analysis.t) l p q -> a.end_ l kind (b p q))
  | S_const ty ->
    (match fst (read_value src ~split ty 2) with
     | Const x -> fun (a : Analysis.t) l _ _ -> a.const l x
     | v -> let v = get v in fun (a : Analysis.t) l p q -> a.const l (v p q))
  | S_drop ty ->
    let v = value src ~split ty 2 in
    fun (a : Analysis.t) l p q -> a.drop l (v p q)
  | S_select ty ->
    let cond = bool src 2 in
    let rd1, w = read_value src ~split ty 3 in
    let v1 = get rd1 and v2 = value src ~split ty (3 + w) in
    fun (a : Analysis.t) l p q ->
      let c = cond p q in
      let x = v1 p q in
      let y = v2 p q in
      a.select l c x y
  | S_unary (op, ity, rty) ->
    let rdi, wi = read_value src ~split ity 2 in
    let input = get rdi and result = value src ~split rty (2 + wi) in
    fun (a : Analysis.t) l p q ->
      let x = input p q in
      let r = result p q in
      a.unary l op x r
  | S_binary (op, aty, bty, rty) ->
    let rda, wa = read_value src ~split aty 2 in
    let rdb, wb = read_value src ~split bty (2 + wa) in
    let va = get rda and vb = get rdb and vr = value src ~split rty (2 + wa + wb) in
    fun (a : Analysis.t) l p q ->
      let x = va p q in
      let y = vb p q in
      let r = vr p q in
      a.binary l op x y r
  | S_local (op, ty) ->
    let opn = Hook.local_op_name op and v = value src ~split ty 3 in
    (match src.int 2 with
     | Const i -> fun (a : Analysis.t) l p q -> a.local l opn i (v p q)
     | Read idx ->
       fun (a : Analysis.t) l p q ->
         let i = idx p q in
         let x = v p q in
         a.local l opn i x)
  | S_global (op, ty) ->
    let opn = Hook.global_op_name op in
    let idx = int src 2 and v = value src ~split ty 3 in
    fun (a : Analysis.t) l p q ->
      let i = idx p q in
      let x = v p q in
      a.global l opn i x
  | S_load (op, ty) ->
    let addr = i32 src 2 and offset = int src 3 and v = value src ~split ty 4 in
    fun (a : Analysis.t) l p q ->
      let addr = addr p q in
      let offset = offset p q in
      let x = v p q in
      a.load l op { Analysis.addr; offset } x
  | S_store (op, ty) ->
    let addr = i32 src 2 and offset = int src 3 and v = value src ~split ty 4 in
    fun (a : Analysis.t) l p q ->
      let addr = addr p q in
      let offset = offset p q in
      let x = v p q in
      a.store l op { Analysis.addr; offset } x
  | S_memory_size ->
    let size = int src 2 in
    fun (a : Analysis.t) l p q -> a.memory_size l (size p q)
  | S_memory_grow ->
    let delta = int src 2 and prev = int src 3 in
    fun (a : Analysis.t) l p q ->
      let d = delta p q in
      let p = prev p q in
      a.memory_grow l d p
  | S_call_pre (tys, indirect) ->
    let callee = i32 src 2 and vs = read_values src ~split tys 3 in
    if indirect then
      fun (a : Analysis.t) l p q ->
        let tbl_idx = callee p q in
        let args = vs p q in
        a.call_pre l (env.resolve tbl_idx) args (Some (Int32.to_int tbl_idx))
    else
      fun (a : Analysis.t) l p q ->
        let f = callee p q in
        let args = vs p q in
        a.call_pre l (Int32.to_int f) args None
  | S_call_post tys ->
    let vs = read_values src ~split tys 2 in
    fun (a : Analysis.t) l p q -> a.call_post l (vs p q)
  | S_return tys ->
    let vs = read_values src ~split tys 2 in
    fun (a : Analysis.t) l p q -> a.return_ l (vs p q)

(** {1 Hook host functions} *)

(** One hook's dispatch: [decode] applied to the analysis, or — only
    while a profiler is attached — to the mark-recording analysis inside
    a timing wrapper that splits total dispatch time ([timer_key]) into
    marshalling ([decode_key]) and user analysis code
    (["dispatch.analysis"]) at the first analysis-callback entry. Returns
    [ret] (the host function's empty result list on the array ABI). *)
let timed (b : binding) ~timer_key ~decode_key ~ret (loc : ('a, 'b, Location.t) arg)
    (decode : Analysis.t -> Location.t -> 'a -> 'b -> unit) : 'a -> 'b -> 'r =
  fun x y ->
    (match !(b.prof), loc with
     | None, Const l -> decode b.analysis l x y
     | None, Read r -> decode b.analysis (r x y) x y
     | Some p, _ ->
       let t0 = Obs.Clock.now_ns () in
       b.mark := -1L;
       decode b.marked (match loc with Const l -> l | Read r -> r x y) x y;
       let t2 = Obs.Clock.now_ns () in
       let t1 = if !(b.mark) < 0L then t2 else !(b.mark) in
       Obs.Profile.add_time p timer_key (Int64.sub t2 t0);
       Obs.Profile.add_time p decode_key (Int64.sub t1 t0);
       Obs.Profile.add_time p "dispatch.analysis" (Int64.sub t2 t1));
    ret

let timer_key spec = "hook." ^ Hook.group_name (Hook.group_of_spec spec)

(** The analysis's counter of the site of [spec] at [loc]
    ({!Analysis.site}). [callee ()], asked only at a direct [call_pre],
    reads the site's static callee. A [br_table] is never counted: its
    decoder also fires the [end] events of the entry it takes, at their
    own locations. *)
let counter (a : Analysis.t) (spec : Hook.spec) loc ~callee =
  match spec with
  | Hook.S_br_table -> None
  | S_call_pre (_, false) -> a.site { spec; loc; callee = callee () }
  | _ -> a.site { spec; loc; callee = None }

(** Build the host function implementing one low-level hook: the
    selected decoder on the array ABI, plus — for the compiled decoder —
    the binder of tier-1 call sites. The profiler state at binding
    decides what a site runs ({!attach_profiler} re-tiers, so sites
    rebind): with no profiler, a site at a constant location that the
    analysis counts ({!counter}) binds its counter as a count, which tier
    1 merges with the counted sites around it, and builds no decoder;
    any other site runs its bare decoder over the site's arguments; with
    a profiler, the {!timed} decoder. *)
let make_hook rt env (spec : Hook.spec) : Interp.extern =
  let ft = Hook.signature ~split_i64:env.split spec in
  let nparams = List.length ft.params in
  let timed ~ret = timed rt.binding ~timer_key:(timer_key spec) ~decode_key:"dispatch.decode" ~ret in
  let h_fn, bind =
    match rt.decoder with
    | `Compiled ->
      let bind =
        { Interp.bind =
            (fun site ->
               if Array.length site <> nparams then None
               else
                 let b = rt.binding in
                 let src = site_source site in
                 let loc = map2 location (src.int 0) (src.int 1) in
                 let prof = !(b.prof) in
                 (* a direct call's callee is its constant slot 2 *)
                 let callee () =
                   match src.int 2 with Const f -> Some f | Read _ | (exception Unbindable) -> None
                 in
                 match (match prof, loc with None, Const l -> counter b.analysis spec l ~callee | _ -> None) with
                 | Some count -> Some (Interp.Site_count count)
                 | None ->
                   match compile env src spec with
                   | exception Unbindable -> None
                   | decode ->
                     match prof, loc with
                     | None, Const l -> Some (Interp.Site_entry (fun e -> decode b.analysis l e ()))
                     | None, Read r -> Some (Site_entry (fun e -> decode b.analysis (r e ()) e ()))
                     | Some _, _ ->
                       let entry = timed ~ret:() loc decode in
                       Some (Site_entry (fun e -> entry e ()))) }
      in
      (timed ~ret:[] stack_loc (compile env stack_source spec), Some bind)
    | `Reference ->
      let decode a _ args off =
        let rec build i acc = if i < 0 then acc else build (i - 1) (args.(off + i) :: acc) in
        dispatch_reference env a spec (build (nparams - 1) [])
      in
      (timed ~ret:[] stack_loc decode, None)
  in
  Interp.host_func_raw ?bind ~name:(Hook.name spec) ~params:ft.params ~results:ft.results h_fn

(** The dispatch table: one host function per generated hook, indexed by
    hook ordinal (= import position minus the original import count). *)
let hook_externs (rt : t) : Interp.extern array =
  Array.map (make_hook rt (env rt)) rt.metadata.Metadata.hook_specs

let imports_of rt (hooks : Interp.extern array) : Interp.imports =
  Array.to_list
    (Array.mapi
       (fun k ext -> (Hook.import_module, Hook.name rt.metadata.Metadata.hook_specs.(k), ext))
       hooks)

(** Import list providing every generated low-level hook. *)
let imports (rt : t) : Interp.imports = imports_of rt (hook_externs rt)

(** Instantiate an instrumented module with the given analysis attached.
    [extra_imports] supplies the program's own imports (if any). The
    instrumenter appends hook imports after the original imports in
    ordinal order, so hooks are resolved positionally through the
    dispatch table (O(1) per import) rather than by name scan; anything
    else falls back to the name-keyed list.

    [wrap_host] is applied to every bound host function — the generated
    hooks and any [Host_func] among [extra_imports] — before binding;
    the fuzzing harness uses it to interpose its fault-injection plan. *)
let instantiate ?fuel ?decoder ?sink ?wrap_host ?(extra_imports : Interp.imports = [])
    (res : Instrument.result) (analysis : Analysis.t) : Interp.instance * t =
  let rt = create ?decoder ?sink res analysis in
  let hooks = hook_externs rt in
  let wrap_extern ext =
    match wrap_host, ext with
    | Some w, Interp.Extern_func (Interp.Host_func h) ->
      Interp.Extern_func (Interp.Host_func (w h))
    | _ -> ext
  in
  let hooks = match wrap_host with None -> hooks | Some _ -> Array.map wrap_extern hooks in
  let extra_imports =
    match wrap_host with
    | None -> extra_imports
    | Some _ -> List.map (fun (m, n, ext) -> (m, n, wrap_extern ext)) extra_imports
  in
  let base = List.length rt.metadata.Metadata.original.Ast.imports in
  let resolve_import i (imp : Ast.import) =
    let k = i - base in
    if k >= 0 && k < Array.length hooks && String.equal imp.module_name Hook.import_module then
      Some (Array.unsafe_get hooks k)
    else None
  in
  let inst =
    Interp.instantiate ?fuel ~resolve_import
      ~imports:(imports_of rt hooks @ extra_imports)
      res.Instrument.instrumented
  in
  rt.instance <- Some inst;
  (inst, rt)

(** Fork an instantiated runtime: a copy-on-write clone of the instance
    ([Interp.fork]) paired with a fresh runtime that owns its own hook
    host functions, analysis binding, indirect-call cache and profiler
    slot, while sharing the immutable per-module work (metadata, the
    [br_table] index, hook specs). Hook imports in the forked instance
    are rebound to the new runtime's hooks, so events dispatch to
    [analysis] (or reify into [sink]), never to the source runtime's.

    The fork starts de-tiered; callers that want tier-1 run
    [Tier1.compile_all] on the forked instance. This is the serve farm's
    worker setup: one instrument+instantiate, then one [fork] per worker
    domain. *)
let fork ?sink (rt : t) (analysis : Analysis.t) : Interp.instance * t =
  let src =
    match rt.instance with
    | Some i -> i
    | None -> invalid_arg "Runtime.fork: runtime has no instance"
  in
  let rt' =
    { rt with instance = None; indirect_cache = ref [||];
      binding = binding (sink_or ?sink analysis) }
  in
  let hooks = hook_externs rt' in
  (* hook ordinal [k] sits at function index [num_original_func_imports + k]
     (the instrumenter appends hook imports after the original ones) *)
  let fbase = rt.metadata.Metadata.num_original_func_imports in
  let wrap_import i (h : Interp.host_func) =
    let k = i - fbase in
    if k >= 0 && k < Array.length hooks then
      match hooks.(k) with
      | Interp.Extern_func (Interp.Host_func h') -> h'
      | _ -> h
    else h
  in
  let inst = Interp.fork ~wrap_import src in
  rt'.instance <- Some inst;
  (inst, rt')

(** {1 The engine-probe backend}

    The second way to run an analysis: instead of rewriting the binary
    ahead of time, probes are compiled into the {e original} module's
    tier-1 closures inside the engine ([Interp.probe_function]), with no
    re-encode, no i64 splitting and no argument marshalling through wasm
    locals. The backend has no event contract of its own: it lowers the
    same {!Plan} the rewriter lowers, for the groups the attached probes
    select, and decodes every event with {!compile} over a probe source
    (no split halves, the [end] events of a [br_table] always selected).
    The probe-parity differential fuzz oracle holds the two lowerings to
    an identical hook-event stream.

    Attach and detach compile nothing: they mark the bodies with an
    event an attached probe matches. A probed body's sparse site table
    is built, and the body compiled with it into tier 1, at its first
    entry after the mark, on every instance, with or without a tier
    policy (probes imply tier 1), so code that never runs costs no
    sites. Frames already on the stack finish on the code they entered
    with; detach silences their installed closures immediately via the
    entry's active flag, and detached bodies re-tier naturally. *)
module Probe = struct
  open Wasm.Interp

  type controller = {
    pc_inst : instance;  (** an instance of the {e original} module *)
    pc_binding : binding;
    pc_mgr : Obs.Probe.t;
    pc_vctx : Validate.Module_ctx.t;
    pc_n_imp : int;
    pc_env : env;
    pc_captured : Value.t array;
        (** the operands a site reports after its instruction, captured
            before it: nothing runs in between, so one buffer serves all *)
  }

  (** The argument source of plan event [ev] at location [l]. The
      location and immediates are constants; an operand is peeked off the
      live stack when the event fires before its instruction and read
      from [captured] (filled before it) when it fires after; the result
      is peeked after the instruction; a local is read from the frame. *)
  let source (st : stack) (captured : Value.t array) (l : Location.t) (ev : Plan.event)
      : (Value.t array, unit) source =
    let value k : (Value.t array, unit, Value.t) arg =
      if k < 2 then Const (Value.i32_of_int (if k = 0 then l.func else l.instr))
      else
        match List.nth ev.args (k - 2) with
        | Plan.Imm v -> Const v
        | Operand d when ev.timing = Plan.Before ->
          Read (fun _ () -> Array.unsafe_get st.data (st.size - 1 - d))
        | Operand d -> Read (fun _ () -> Array.unsafe_get captured d)
        | Result -> Read (fun _ () -> Array.unsafe_get st.data (st.size - 1))
        | Local x -> Read (fun locals () -> Array.unsafe_get locals x)
    in
    { int = (fun k -> map (fun v -> Int32.to_int (Value.as_i32 v)) (value k));
      i32 = (fun k -> map Value.as_i32 (value k));
      value = (fun _ -> value);
      joined = (fun _ -> invalid_arg "probe arguments are never split") }

  let probe_event ?(operands = 0) ?(local = -1) pe_fire =
    Probe_fire { pe_fire; pe_operands = operands; pe_local = local }

  (** The hook groups the active entries that can match in [fidx]
      select, and the entries gating an event of [fidx] of the given
      spec, reported at [at]: those matching its group, function and
      instruction, [None] when none does. [None] when no active entry
      can match in [fidx]. *)
  let gates c ~fidx =
    let in_func (e : Obs.Probe.entry) =
      Option.fold ~none:true ~some:(( = ) fidx) e.e_spec.sp_func
      && Option.fold ~none:true ~some:(fun (g, _) -> g = fidx) e.e_spec.sp_loc
    in
    match List.filter in_func (Obs.Probe.entries c.pc_mgr) with
    | [] -> None
    | entries ->
      let groups =
        if List.exists (fun (e : Obs.Probe.entry) -> e.e_spec.sp_groups = []) entries then Hook.all
        else
          List.concat_map (fun (e : Obs.Probe.entry) -> e.e_spec.sp_groups) entries
          |> List.filter_map (fun g -> try Some (Hook.group_of_name g) with Invalid_argument _ -> None)
          |> Hook.of_list
      in
      Some
        ( groups,
          fun spec ~at ->
            let group = Hook.group_name (Hook.group_of_spec spec) in
            match
              List.filter
                (fun (e : Obs.Probe.entry) ->
                   Obs.Probe.site_matches e.e_spec ~group ~func:fidx ~instr:at)
                entries
            with
            | [] -> None
            | es -> Some es )

  (** The gates of the [end] events a [br_table] may fire, by location. *)
  let end_gates gate (info : Metadata.br_table_info) =
    List.filter_map
      (fun (eb : Metadata.ended_block) ->
         let at = eb.eb_end_loc.Location.instr in
         Option.map (fun es -> (at, Obs.Probe.gate es)) (gate (Hook.S_end eb.eb_kind) ~at))
      (List.concat_map snd (info.bt_default :: Array.to_list info.bt_targets))

  (** Build the probe-site table of defined function [j] by lowering its
      plan for the groups the active probes select: [None] when no
      active probe matches any event. An event the analysis counts
      ({!counter}), gated by one unconditional entry and fired before or
      after its instruction, is that entry and its counter
      ({!Interp.Probe_count}); any other event is its gate
      ({!Obs.Probe.gate}) around its decoder, timed under
      ["dispatch.probe"] while a profiler is attached. *)
  let build_hooks c ~(j : int) (f : Ast.func) : probe_hooks option =
    let fidx = c.pc_n_imp + j in
    match gates c ~fidx with
    | None -> None
    | Some (groups, gate) ->
    let st = c.pc_inst.inst_stack in
    let peek d = Array.unsafe_get st.data (st.size - 1 - d) in
    (* the capture of the operands (one or two) an event after its
       instruction reports *)
    let captured = c.pc_captured in
    let capture1 = probe_event ~operands:1 (fun _ -> captured.(0) <- peek 0) in
    let capture2 =
      probe_event ~operands:2 (fun _ ->
        captured.(0) <- peek 0;
        captured.(1) <- peek 1)
    in
    (* the closure of [ev]: its gate around its decoder, timed only while
       a profiler is attached (attaching one rebuilds the sites) *)
    let fire env b gate (ev : Plan.event) =
      let l = location fidx ev.at in
      let decode = compile env (source st captured l ev) ev.spec in
      match !(b.prof) with
      | None -> fun locals -> if gate () then decode b.analysis l locals ()
      | Some _ ->
        let timed =
          timed b ~timer_key:(timer_key ev.spec) ~decode_key:"dispatch.probe" ~ret:() (Const l)
            decode
        in
        fun locals -> if gate () then timed locals ()
    in
    (* the event closure of [ev] under [gate] *)
    let event ?(env = c.pc_env) ?(b = c.pc_binding) gate (ev : Plan.event) =
      let reads (n, l) = function
        | Plan.Operand d when ev.timing <> After -> (max n (d + 1), l)
        | Result -> (max n 1, l)
        | Local x -> (n, x)
        | _ -> (n, l)
      in
      let pe_operands, pe_local = List.fold_left reads (0, -1) ev.args in
      { pe_fire = fire env b gate ev; pe_operands; pe_local }
    in
    (* the analysis's counter of [ev]'s site, while no profiler is
       attached (attaching one rebuilds the sites): a counted event reads
       no operand and no local, so tier 1 boxes nothing for it and merges
       it with the counted events around it *)
    let counted (ev : Plan.event) =
      let b = c.pc_binding in
      (* a direct call's callee is its leading immediate *)
      let callee () =
        match ev.args with Plan.Imm v :: _ -> Some (Int32.to_int (Value.as_i32 v)) | _ -> None
      in
      match !(b.prof) with
      | None -> counter b.analysis ev.spec (location fidx ev.at) ~callee
      | Some _ -> None
    in
    (* a [br_table]'s decoder fires the [br_table] event and the [end]
       events of the entry it takes, through an analysis that gates each
       at its own location *)
    let br_table (info : Metadata.br_table_info) (ev : Plan.event) =
      let end_gates = end_gates gate info in
      let bt_gate = Option.map Obs.Probe.gate (gate ev.spec ~at:ev.at) in
      if Option.is_none bt_gate && List.is_empty end_gates then None
      else begin
        let gated (a : Analysis.t) =
          { a with
            Analysis.br_table =
              (fun l t d i ->
                 match bt_gate with Some g when g () -> a.br_table l t d i | _ -> ());
            end_ =
              (fun l k b ->
                 match List.assoc_opt l.Location.instr end_gates with
                 | Some g when g () -> a.end_ l k b
                 | _ -> ());
            site = Analysis.default.site }
        in
        let b = c.pc_binding in
        Some
          (Probe_fire
             (event
                ~env:{ c.pc_env with br_table = (fun ~func:_ ~instr:_ -> Some info) }
                ~b:{ b with analysis = gated b.analysis; marked = gated b.marked }
                (fun () -> true) ev))
      end
    in
    let n = List.length f.body in
    (* the instruction's probe events before and after it, the taken-only
       [end] events of a [br_if] (as closures), and the body-head events
       of the next instruction, each reversed *)
    let pre = ref [] and post = ref [] and taken = ref [] and next = ref [] in
    let place table (ev : Plan.event) =
      match ev.spec, ev.timing with
      | Hook.S_br_table, _ -> Option.iter (fun e -> pre := e :: !pre) (br_table (Option.get table) ev)
      | _, timing ->
        match gate ev.spec ~at:ev.at with
        | None -> ()
        | Some es ->
          let e =
            match es, counted ev with
            | [ entry ], Some count when entry.e_spec.sp_nth = 1 && timing <> Taken ->
              Probe_count (entry, count)
            | _ ->
              if timing = After then begin
                if List.mem (Plan.Operand 1) ev.args then pre := capture2 :: !pre
                else if List.mem (Plan.Operand 0) ev.args then pre := capture1 :: !pre
              end;
              let f = event (Obs.Probe.gate es) ev in
              if timing = Taken then taken := f.pe_fire :: !taken;
              Probe_fire f
          in
          match timing with
          | Plan.Before -> pre := e :: !pre
          | Body_head -> next := e :: !next
          | Taken -> ()
          | After -> post := e :: !post
    in
    let enter = ref [] and exit = ref [] and sites = ref [] in
    let site at events table =
      List.iter (place table) events;
      (match List.rev !taken with
       | [] -> ()
       | evs ->
         pre :=
           probe_event ~operands:1 (fun locals ->
             if not (Int32.equal (Value.as_i32 (peek 0)) 0l) then List.iter (fun f -> f locals) evs)
           :: !pre);
      if at < 0 then enter := List.rev !pre
      else if at >= n then exit := List.rev !pre
      else if not (List.is_empty !pre && List.is_empty !post) then
        sites :=
          { site_pc = at; site_pre = List.rev !pre; site_post = List.rev !post }
          :: !sites;
      pre := !next;
      post := [];
      taken := [];
      next := []
    in
    match
      Plan.func ~groups ~facts:None ~vctx:c.pc_vctx ~fidx
        ~is_start:(c.pc_inst.inst_module.Ast.start = Some fidx) f site
    with
    | exception Validate.Invalid _ ->
      (* tier 1 declines a body that does not validate: probed with no
         sites, probing it is the structured probe-unsupported error,
         never a run without events *)
      Some { ph_sites = [||]; ph_enter = []; ph_exit = []; ph_compile = Wasm.Tier1.compile }
    | _ ->
      if List.is_empty !sites && List.is_empty !enter && List.is_empty !exit then None
      else
        Some
          { ph_sites = Array.of_list (List.rev !sites);
            ph_enter = !enter;
            ph_exit = !exit;
            ph_compile = Wasm.Tier1.compile }

  (** Does an active probe match an event of defined function [j]? The
      walk stops at the first one. A body that does not validate counts:
      tier 1 declines it, so probing it is the structured
      probe-unsupported error, never a run without events. *)
  let matched c ~(j : int) (f : Ast.func) =
    let fidx = c.pc_n_imp + j in
    match gates c ~fidx with
    | None -> false
    | Some (groups, gate) ->
      let exception Found in
      let gated table (ev : Plan.event) =
        Option.is_some (gate ev.spec ~at:ev.at)
        || (ev.spec = Hook.S_br_table && not (List.is_empty (end_gates gate (Option.get table))))
      in
      match
        Plan.func ~groups ~facts:None ~vctx:c.pc_vctx ~fidx
          ~is_start:(c.pc_inst.inst_module.Ast.start = Some fidx) f
          (fun _ events table -> if List.exists (gated table) events then raise Found)
      with
      | _ -> false
      | exception (Found | Validate.Invalid _) -> true

  (** The hooks of a probed body before its first entry: its sites are
      built when it is compiled, so code that never runs costs none.
      Until then the hooks decline tier 1 — an entry event that reads an
      operand the frame does not have — so a body compiled without them,
      by [Tier1.compile_all], stays marked and compiles here at its next
      entry instead of running without its events. *)
  let pending c (f : Ast.func) =
    { ph_sites = [||];
      ph_enter = [ probe_event ~operands:1 ignore ];
      ph_exit = [];
      ph_compile =
        (fun inst j ->
           inst.inst_code.(j).c_probe <- build_hooks c ~j f;
           Wasm.Tier1.compile inst j) }

  (** Re-derive from the current probe set which functions are probed:
      one with an event an active probe matches is marked (compiled with
      its sites at its next entry), the rest return to normal tiered
      execution. Nothing is compiled or built here. *)
  let rebuild c =
    List.iteri
      (fun j f ->
         if matched c ~j f then probe_function c.pc_inst j (pending c f)
         else unprobe_function c.pc_inst j)
      c.pc_inst.inst_module.Ast.funcs

  let detach_all c =
    Obs.Probe.detach_all c.pc_mgr;
    rebuild c

  (** Create a probe controller for an instance of an {e uninstrumented}
      module and register its snapshot-facing view on the instance:
      [Snapshot.capture] records the attached spec set, restore re-arms
      exactly that set (fresh hit counters). *)
  let create ?registry (inst : instance) (analysis : Analysis.t) : controller =
    let m = inst.inst_module in
    let n_imp = Ast.num_imported_funcs m in
    let env =
      { split = false;
        want_end = true;
        br_table = (fun ~func:_ ~instr:_ -> None);
        resolve = resolve_indirect inst ~n_imp (ref [||]) }
    in
    let c =
      { pc_inst = inst; pc_binding = binding analysis; pc_mgr = Obs.Probe.create ?registry ();
        pc_vctx = Validate.Module_ctx.create m; pc_n_imp = n_imp; pc_env = env;
        pc_captured = Array.make 2 (Value.I32 0l) }
    in
    set_probes inst
      (Some
         {
           ps_capture =
             (fun () ->
                let specs =
                  List.map (fun (e : Obs.Probe.entry) -> e.Obs.Probe.e_spec)
                    (Obs.Probe.entries c.pc_mgr)
                in
                fun () ->
                  Obs.Probe.detach_all c.pc_mgr;
                  List.iter (fun sp -> ignore (Obs.Probe.attach c.pc_mgr sp)) specs;
                  rebuild c);
           ps_detach_all = (fun () -> detach_all c);
         });
    c

  (** Attach [spec]; if tier 1 declines a body it would probe, the
      entry is detached again and the structured error re-raised. *)
  let attach c spec =
    let e = Obs.Probe.attach c.pc_mgr spec in
    (try rebuild c
     with ex ->
       Obs.Probe.detach c.pc_mgr e;
       rebuild c;
       raise ex);
    e

  let detach c e =
    Obs.Probe.detach c.pc_mgr e;
    rebuild c

  (** Parse and validate a probe spec: syntax via {!Obs.Probe.parse_spec},
      group names against the hook vocabulary. *)
  let validate_spec (s : string) : (Obs.Probe.spec, string) result =
    match Obs.Probe.parse_spec s with
    | Error m -> Error m
    | Ok sp ->
      let unknown =
        List.filter
          (fun g ->
             match Hook.group_of_name g with
             | exception Invalid_argument _ -> true
             | _ -> false)
          sp.Obs.Probe.sp_groups
      in
      (match unknown with
       | [] -> Ok sp
       | g :: _ -> Error (Printf.sprintf "unknown hook group %S" g))

  let attach_spec c s =
    match validate_spec s with
    | Error _ as e -> e
    | Ok sp -> Ok (attach c sp)

  (** Attach [spec] once the instance's step counter first reaches
      [step] (checked at batch charge boundaries on every tier). *)
  let attach_at c ~step spec =
    add_step_trigger c.pc_inst ~at:step (fun () -> ignore (attach c spec))

  let detach_at c ~step e = add_step_trigger c.pc_inst ~at:step (fun () -> detach c e)

  (** Attach (or detach) a profiler to the controller's dispatch timing
      and to the instance (per-function and per-run accounting). Probe
      dispatch splits into ["dispatch.probe"] (argument decoding up to
      the first analysis-callback entry) and ["dispatch.analysis"]. *)
  let attach_profiler c p =
    c.pc_binding.prof := p;
    set_profiler c.pc_inst p;
    rebuild c

  let entries c = Obs.Probe.entries c.pc_mgr
  let all_entries c = Obs.Probe.all_entries c.pc_mgr
  let manager c = c.pc_mgr
end
