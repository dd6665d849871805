(** The Wasabi runtime: provides the imported low-level hook functions and
    dispatches them to the high-level analysis API.

    This is the OCaml equivalent of the generated JavaScript of the
    original tool: low-level hooks are monomorphic host functions that
    decode their arguments (re-joining split i64 halves), attach
    pre-computed static information from {!Metadata} (resolved branch
    targets, [br_table] entries, indirect call targets) and invoke the
    user's {!Analysis.t} callbacks.

    There are two decoder implementations:

    - {b compiled} (the default): every monomorphized hook spec is
      compiled {e once} into a specialized closure over an argument
      source — arity, argument slot offsets, i64 split/join, op-name
      strings and [br_table] metadata are all pre-resolved. Compiled at
      runtime-binding time over the interpreter's operand-stack buffer
      (the array ABI of {!Wasm.Interp.host_func_raw}), with no per-call
      list allocation or map lookup; and compiled again for each tier-1
      call site that binds (see {!Wasm.Interp.site_binder}), over the
      site's constants and the caller frame's locals, read in place,
      with the location and every other constant-derived value computed
      at binding;
    - {b reference}: the original interpretive [take_*]-chain over an
      argument list, kept as the debug path and as the oracle for the
      differential decoder tests. Selected with [~decoder:`Reference] or
      by setting the [WASABI_REFERENCE_DECODER] environment variable.

    Both paths must produce identical high-level hook invocations;
    [test/test_decoders.ml] checks this across the whole corpus. *)

open Wasm
open Wasm.Types

type decoder_kind = [ `Compiled | `Reference ]

type t = {
  metadata : Metadata.t;
  analysis : Analysis.t;
  decoder : decoder_kind;
  br_index : Metadata.br_table_index;
      (** O(1) per-location [br_table] metadata, built once at creation *)
  mutable instance : Interp.instance option;
      (** the instrumented instance, needed to resolve indirect call
          targets through the table; set right after instantiation *)
  mutable indirect_cache : int array;
      (** per-table-slot resolution of {!resolve_indirect}, filled lazily.
          MVP tables are immutable once element segments have been
          applied, so entries never need invalidation. *)
  mutable prof : Obs.Profile.t option;
      (** when set, every hook dispatch is counted and timed under
          ["hook.<group>"] plus the ["dispatch.decode"] /
          ["dispatch.analysis"] split; [None] costs one match per
          dispatch *)
  mark : int64 ref;
      (** timestamp of the first analysis-callback entry of the current
          profiled dispatch, or [-1L]; separates marshalling time from
          user analysis time *)
  marked_analysis : Analysis.t;
      (** [analysis] with every callback wrapped to record [mark]; only
          dispatched to while a profiler is attached *)
}

exception Bad_hook_args = Error.Hook_error

let bad fmt = Error.hook_error ~code:"bad-hook-args" fmt

let mark_now mark = if !mark < 0L then mark := Obs.Clock.now_ns ()

(** Wrap every callback so the first one entered during a dispatch
    records its entry time: everything before it is argument decoding,
    everything after it is the user's analysis code. *)
let with_mark mark (a : Analysis.t) : Analysis.t =
  {
    Analysis.nop = (fun l -> mark_now mark; a.Analysis.nop l);
    unreachable = (fun l -> mark_now mark; a.Analysis.unreachable l);
    if_ = (fun l c -> mark_now mark; a.Analysis.if_ l c);
    br = (fun l t -> mark_now mark; a.Analysis.br l t);
    br_if = (fun l t c -> mark_now mark; a.Analysis.br_if l t c);
    br_table = (fun l tbl d i -> mark_now mark; a.Analysis.br_table l tbl d i);
    begin_ = (fun l k -> mark_now mark; a.Analysis.begin_ l k);
    end_ = (fun l k b -> mark_now mark; a.Analysis.end_ l k b);
    const = (fun l v -> mark_now mark; a.Analysis.const l v);
    drop = (fun l v -> mark_now mark; a.Analysis.drop l v);
    select = (fun l c x y -> mark_now mark; a.Analysis.select l c x y);
    unary = (fun l op i r -> mark_now mark; a.Analysis.unary l op i r);
    binary = (fun l op x y r -> mark_now mark; a.Analysis.binary l op x y r);
    local = (fun l op i v -> mark_now mark; a.Analysis.local l op i v);
    global = (fun l op i v -> mark_now mark; a.Analysis.global l op i v);
    load = (fun l op ma v -> mark_now mark; a.Analysis.load l op ma v);
    store = (fun l op ma v -> mark_now mark; a.Analysis.store l op ma v);
    memory_size = (fun l s -> mark_now mark; a.Analysis.memory_size l s);
    memory_grow = (fun l d p -> mark_now mark; a.Analysis.memory_grow l d p);
    call_pre = (fun l f args ti -> mark_now mark; a.Analysis.call_pre l f args ti);
    call_post = (fun l rs -> mark_now mark; a.Analysis.call_post l rs);
    return_ = (fun l rs -> mark_now mark; a.Analysis.return_ l rs);
    start = (fun l -> mark_now mark; a.Analysis.start l);
  }

let default_decoder () : decoder_kind =
  match Sys.getenv_opt "WASABI_REFERENCE_DECODER" with
  | Some s when s <> "" && s <> "0" -> `Reference
  | _ -> `Compiled

let create ?decoder ?sink (res : Instrument.result) (analysis : Analysis.t) : t =
  let decoder = match decoder with Some d -> d | None -> default_decoder () in
  (* a sink interposes at the analysis boundary: hooks still decode
     their arguments as usual, but the decoded invocation is reified as
     an [Analysis.event] and handed to [sink] instead of running the
     callbacks inline — the serve layer's async dispatch path *)
  let analysis =
    match sink with None -> analysis | Some push -> Analysis.reify push
  in
  let mark = ref (-1L) in
  { metadata = res.metadata; analysis; decoder;
    br_index = Metadata.build_br_table_index res.metadata;
    instance = None; indirect_cache = [||]; prof = None;
    mark; marked_analysis = with_mark mark analysis }

(** Attach a profiler to both the runtime (hook-dispatch accounting) and
    the instrumented instance, when one is already present. *)
let attach_profiler (rt : t) (p : Obs.Profile.t option) : unit =
  rt.prof <- p;
  match rt.instance with
  | Some inst -> Interp.set_profiler inst p
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

(** Map a function instance of the *instrumented* module back to its index
    in the *original* module's function index space. *)
let original_func_index rt (f : Interp.func_inst) : int option =
  match rt.instance with
  | None -> None
  | Some inst ->
    let n_imp = rt.metadata.Metadata.num_original_func_imports in
    let h = rt.metadata.Metadata.num_hooks in
    (match f with
     | Interp.Wasm_func (j, owner) when owner == inst -> Some (n_imp + j)
     | Interp.Wasm_func _ -> None
     | Interp.Host_func _ ->
       (* originally imported function: find its import position *)
       let rec scan i =
         if i >= n_imp + h then None
         else if inst.Interp.inst_funcs.(i) == f then Some i
         else scan (i + 1)
       in
       (match scan 0 with
        | Some i when i < n_imp -> Some i
        | _ -> None))

(* cache sentinel: a table slot whose resolution has not been computed *)
let unresolved = min_int

let resolve_indirect rt (table_idx : int32) : int =
  let missing = -1 in
  match rt.instance with
  | None -> missing
  | Some inst ->
    (match inst.Interp.inst_table with
     | None -> missing
     | Some table ->
       let elems = table.Interp.t_elems in
       let i = Int64.to_int (Int64.logand (Int64.of_int32 table_idx) 0xFFFFFFFFL) in
       if i >= Array.length elems then missing
       else begin
         if Array.length rt.indirect_cache <> Array.length elems then
           rt.indirect_cache <- Array.make (Array.length elems) unresolved;
         let cached = rt.indirect_cache.(i) in
         if cached <> unresolved then cached
         else begin
           let r =
             match elems.(i) with
             | None -> missing
             | Some f ->
               (match original_func_index rt f with Some k -> k | None -> missing)
           in
           rt.indirect_cache.(i) <- r;
           r
         end
       end)

(** The reference dispatcher for one low-level hook: interpretive
    [take_*] decoding over an argument list. *)
let dispatch_reference rt (a : Analysis.t) (spec : Hook.spec) : Value.t list -> unit =
  let split = rt.metadata.Metadata.split_i64 in
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
      let info = Metadata.br_table_at rt.metadata loc in
      let targets = Array.map fst info.Metadata.bt_targets in
      let default = fst info.Metadata.bt_default in
      a.br_table loc targets default idx;
      (* the blocks ended by the selected entry, known only at runtime *)
      if Hook.Group_set.mem Hook.G_end rt.metadata.Metadata.groups then begin
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
        let callee = resolve_indirect rt callee_or_table in
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
    time, to a fixed argument slot [k]. Slots 0 and 1 are always the
    location (function index, instruction index). The same decoder
    serves both ways a hook is called:

    - on the array ABI, the source reads the operand-stack slice
      ([Interp.call_host] enforces the arity, so reads are unchecked);
    - at a tier-1 call site bound by {!Interp.site_binder}, it reads the
      site's constants and the caller frame's locals in place. A
      constant argument is a {!Const} reader, and everything computed
      from constants only — the location, the [br]/[br_if] target
      record, the [br_table] metadata — is computed once, at binding. *)

(** A reader of one argument out of a two-part environment: the stack
    buffer and argument offset on the array ABI, the caller's frame (and
    [()]) at a bound site. Two parts, so the array ABI allocates nothing
    per call. *)
type ('a, 'b, 'x) arg = Const of 'x | Read of ('a -> 'b -> 'x)

type ('a, 'b) source = {
  int : int -> ('a, 'b, int) arg;  (** the i32 at slot [k], as a native int *)
  i32 : int -> ('a, 'b, int32) arg;  (** the same, as an [int32] *)
  value : value_type -> int -> ('a, 'b, Value.t) arg;
      (** the one-slot value of the given type at slot [k] *)
  joined : int -> ('a, 'b, Value.t) arg;  (** the i64 split into slots [k], [k + 1] *)
  loc : ('a, 'b, Location.t) arg;  (** the location, slots 0 and 1 *)
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

(** The array ABI: arguments at [args.(off + k)]. *)
let stack_source : (Value.t array, int) source =
  { int = (fun k -> Read (fun args off -> slot_int args (off + k)));
    i32 = (fun k -> Read (fun args off -> slot_i32 args (off + k)));
    loc = Read (fun args off -> location (slot_int args off) (slot_int args (off + 1)));
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
    loc = map2 location (int 0) (int 1);
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
let compile rt (src : ('a, 'b) source) (spec : Hook.spec) : Analysis.t -> 'a -> 'b -> unit =
  let split = rt.metadata.Metadata.split_i64 in
  let loc = get src.loc in
  match spec with
  | Hook.S_nop -> fun (a : Analysis.t) p q -> a.nop (loc p q)
  | S_unreachable -> fun (a : Analysis.t) p q -> a.unreachable (loc p q)
  | S_start -> fun (a : Analysis.t) p q -> a.start (loc p q)
  | S_if_cond ->
    let cond = bool src 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let c = cond p q in
      a.if_ l c
  | S_br ->
    let target = target src in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let t = target p q in
      a.br l t
  | S_br_if ->
    let target = target src and cond = bool src 4 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let t = target p q in
      let c = cond p q in
      a.br_if l t c
  | S_br_table ->
    let want_end = Hook.Group_set.mem Hook.G_end rt.metadata.Metadata.groups in
    let table =
      get
        (map2
           (fun func instr ->
              Option.map
                (fun (info : Metadata.br_table_info) ->
                   (info, Array.map fst info.bt_targets, fst info.bt_default))
                (Metadata.br_table_find rt.br_index ~func ~instr))
           (src.int 0) (src.int 1))
    in
    let idx = int src 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
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
  | S_begin kind -> fun (a : Analysis.t) p q -> a.begin_ (loc p q) kind
  | S_end kind ->
    let begin_loc = get (map2 location (src.int 0) (src.int 2)) in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let b = begin_loc p q in
      a.end_ l kind b
  | S_const ty ->
    let v = value src ~split ty 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let x = v p q in
      a.const l x
  | S_drop ty ->
    let v = value src ~split ty 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let x = v p q in
      a.drop l x
  | S_select ty ->
    let cond = bool src 2 in
    let rd1, w = read_value src ~split ty 3 in
    let v1 = get rd1 and v2 = value src ~split ty (3 + w) in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let c = cond p q in
      let x = v1 p q in
      let y = v2 p q in
      a.select l c x y
  | S_unary (op, ity, rty) ->
    let rdi, wi = read_value src ~split ity 2 in
    let input = get rdi and result = value src ~split rty (2 + wi) in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let x = input p q in
      let r = result p q in
      a.unary l op x r
  | S_binary (op, aty, bty, rty) ->
    let rda, wa = read_value src ~split aty 2 in
    let rdb, wb = read_value src ~split bty (2 + wa) in
    let va = get rda and vb = get rdb and vr = value src ~split rty (2 + wa + wb) in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let x = va p q in
      let y = vb p q in
      let r = vr p q in
      a.binary l op x y r
  | S_local (op, ty) ->
    let opn = Hook.local_op_name op in
    let idx = int src 2 and v = value src ~split ty 3 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let i = idx p q in
      let x = v p q in
      a.local l opn i x
  | S_global (op, ty) ->
    let opn = Hook.global_op_name op in
    let idx = int src 2 and v = value src ~split ty 3 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let i = idx p q in
      let x = v p q in
      a.global l opn i x
  | S_load (op, ty) ->
    let addr = i32 src 2 and offset = int src 3 and v = value src ~split ty 4 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let addr = addr p q in
      let offset = offset p q in
      let x = v p q in
      a.load l op { Analysis.addr; offset } x
  | S_store (op, ty) ->
    let addr = i32 src 2 and offset = int src 3 and v = value src ~split ty 4 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let addr = addr p q in
      let offset = offset p q in
      let x = v p q in
      a.store l op { Analysis.addr; offset } x
  | S_memory_size ->
    let size = int src 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let s = size p q in
      a.memory_size l s
  | S_memory_grow ->
    let delta = int src 2 and prev = int src 3 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let d = delta p q in
      let p = prev p q in
      a.memory_grow l d p
  | S_call_pre (tys, indirect) ->
    let callee = i32 src 2 and vs = read_values src ~split tys 3 in
    if indirect then
      fun (a : Analysis.t) p q ->
        let l = loc p q in
        let tbl_idx = callee p q in
        let args = vs p q in
        a.call_pre l (resolve_indirect rt tbl_idx) args (Some (Int32.to_int tbl_idx))
    else
      fun (a : Analysis.t) p q ->
        let l = loc p q in
        let f = callee p q in
        let args = vs p q in
        a.call_pre l (Int32.to_int f) args None
  | S_call_post tys ->
    let vs = read_values src ~split tys 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let rs = vs p q in
      a.call_post l rs
  | S_return tys ->
    let vs = read_values src ~split tys 2 in
    fun (a : Analysis.t) p q ->
      let l = loc p q in
      let rs = vs p q in
      a.return_ l rs

(** {1 Hook host functions} *)

(** One hook's dispatch: [decode] applied to the analysis, or — only
    while a profiler is attached — to the mark-recording analysis inside
    a timing wrapper that splits total dispatch time into marshalling
    (["dispatch.decode"]) and user analysis code (["dispatch.analysis"])
    at the first analysis-callback entry. Returns [ret] (the host
    function's empty result list on the array ABI). *)
let timed rt ~timer_key ~ret (decode : Analysis.t -> 'a -> 'b -> unit) : 'a -> 'b -> 'r =
  let mark = rt.mark in
  fun x y ->
    (match rt.prof with
     | None -> decode rt.analysis x y
     | Some p ->
       let t0 = Obs.Clock.now_ns () in
       mark := -1L;
       decode rt.marked_analysis x y;
       let t2 = Obs.Clock.now_ns () in
       let t1 = if !mark < 0L then t2 else !mark in
       Obs.Profile.add_time p timer_key (Int64.sub t2 t0);
       Obs.Profile.add_time p "dispatch.decode" (Int64.sub t1 t0);
       Obs.Profile.add_time p "dispatch.analysis" (Int64.sub t2 t1));
    ret

(** Build the host function implementing one low-level hook: the
    selected decoder on the array ABI, plus — for the compiled decoder —
    the binder of tier-1 call sites, which runs the same decoder over
    the site's arguments. *)
let make_hook rt (spec : Hook.spec) : Interp.extern =
  let split_i64 = rt.metadata.Metadata.split_i64 in
  let ft = Hook.signature ~split_i64 spec in
  let nparams = List.length ft.params in
  let timer_key = "hook." ^ Hook.group_name (Hook.group_of_spec spec) in
  let h_fn, bind =
    match rt.decoder with
    | `Compiled ->
      let bind =
        { Interp.bind =
            (fun site ->
               if Array.length site <> nparams then None
               else
                 match timed rt ~timer_key ~ret:() (compile rt (site_source site) spec) with
                 | entry -> Some (fun e -> entry e ())
                 | exception Unbindable -> None) }
      in
      (timed rt ~timer_key ~ret:[] (compile rt stack_source spec), Some bind)
    | `Reference ->
      let decode a args off =
        let rec build i acc = if i < 0 then acc else build (i - 1) (args.(off + i) :: acc) in
        dispatch_reference rt a spec (build (nparams - 1) [])
      in
      (timed rt ~timer_key ~ret:[] decode, None)
  in
  Interp.host_func_raw ?bind ~name:(Hook.name spec) ~params:ft.params ~results:ft.results h_fn

(** The dispatch table: one host function per generated hook, indexed by
    hook ordinal (= import position minus the original import count). *)
let hook_externs (rt : t) : Interp.extern array =
  Array.map (make_hook rt) rt.metadata.Metadata.hook_specs

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
  let analysis =
    match sink with None -> analysis | Some push -> Analysis.reify push
  in
  let mark = ref (-1L) in
  let rt' =
    { metadata = rt.metadata; analysis; decoder = rt.decoder;
      br_index = rt.br_index; instance = None; indirect_cache = [||];
      prof = None; mark; marked_analysis = with_mark mark analysis }
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
    tier-1 closures inside the engine ([Interp.probe_function]).
    No re-encode, no i64 splitting, no argument marshalling through wasm
    locals — event closures peek the few operands their site boxes onto
    the live operand stack and invoke the same {!Analysis.t} callbacks
    the AOT hook path dispatches to, so every analysis runs unmodified
    under either backend.

    Event synthesis mirrors the instrumenter's contract exactly
    (location values, event order, [end] events of every block a branch
    exits, [br_table] runtime selection, call argument/result capture);
    the probe-parity differential fuzz oracle holds the two backends to
    an identical hook-event stream.

    Probes attach and detach while the instance runs. Attach and detach
    compile nothing: they rebuild each function's sparse site table and
    mark the bodies that have one. A probed body is compiled with its
    sites into tier 1 at its first entry after the mark, on every
    instance, with or without a tier policy (probes imply tier 1; there
    is no tier-0 probe path), so unprobed sites and functions run at
    full tier-1 speed. Frames already on the stack finish on the code
    they entered with; detach silences their installed closures
    immediately via the entry's active flag, and detached bodies re-tier
    naturally. *)
module Probe = struct
  open Wasm.Interp
  open Wasm.Ast

  (** Static control-stack entry of the probe builder's walk, the
      analogue of the instrumenter's [ctrl_entry]. *)
  type pctrl = {
    k : Hook.block_kind;
    cb : int;  (** begin instruction index; -1 for the function *)
    ce : int;  (** matching [End] index; body length for the function *)
  }

  type controller = {
    pc_inst : instance;  (** an instance of the {e original} module *)
    pc_analysis : Analysis.t;
    pc_marked : Analysis.t;  (** mark-wrapped, dispatched under a profiler *)
    pc_mark : int64 ref;
    pc_mgr : Obs.Probe.t;
    mutable pc_prof : Obs.Profile.t option;
    mutable pc_indirect : int array;  (** per-table-slot callee resolution *)
    pc_n_imp : int;  (** imported functions: defined j ↔ index n_imp + j *)
    pc_start : int option;
  }

  let target_instr (e : pctrl) =
    match e.k with
    | Hook.Bloop -> e.cb + 1
    | Hook.Bfunction -> e.ce
    | Hook.Bblock | Hook.Bif | Hook.Belse -> e.ce + 1

  (** Original-module function index of a table slot's callee, -1 when
      null / foreign; cached per slot (MVP tables are immutable). *)
  let resolve_indirect_orig c (tbl : int32) : int =
    match c.pc_inst.inst_table with
    | None -> -1
    | Some table ->
      let elems = table.t_elems in
      let i = Int64.to_int (Int64.logand (Int64.of_int32 tbl) 0xFFFFFFFFL) in
      if i >= Array.length elems then -1
      else begin
        if Array.length c.pc_indirect <> Array.length elems then
          c.pc_indirect <- Array.make (Array.length elems) unresolved;
        let cached = c.pc_indirect.(i) in
        if cached <> unresolved then cached
        else begin
          let r =
            match elems.(i) with
            | None -> -1
            | Some (Wasm_func (j, owner)) when owner == c.pc_inst -> c.pc_n_imp + j
            | Some f ->
              let rec scan i =
                if i >= c.pc_n_imp then -1
                else if c.pc_inst.inst_funcs.(i) == f then i
                else scan (i + 1)
              in
              scan 0
          in
          c.pc_indirect.(i) <- r;
          r
        end
      end

  (** One event of a site: the closure plus the top-of-stack operands
      and the local it reads. *)
  let event ?(operands = 0) ?(local = -1) pe_fire =
    { pe_fire; pe_operands = operands; pe_local = local }

  (** The events of one site, fired in order, as one event reading what
      any of them reads. *)
  let compose = function
    | [] -> None
    | [ e ] -> Some e
    | es ->
      Some
        {
          pe_fire = (fun locals -> List.iter (fun e -> e.pe_fire locals) es);
          pe_operands = List.fold_left (fun m e -> max m e.pe_operands) 0 es;
          pe_local = List.fold_left (fun l e -> max l e.pe_local) (-1) es;
        }

  (** Build the probe-site table of defined function [j] from the
      currently attached probe set: [None] when no active probe matches
      any event site in the function. Every synthesized event closure is
      a gate compiled from the statically-matching probe entries
      ({!Obs.Probe.gate}) around the analysis callback, wrapped — only
      while a profiler is attached — in the ["hook.<group>"] /
      ["dispatch.probe"] / ["dispatch.analysis"] timing split. *)
  let build_hooks c ~(j : int) : probe_hooks option =
    let inst = c.pc_inst in
    let code = inst.inst_code.(j) in
    let fidx = c.pc_n_imp + j in
    let body = code.c_body in
    let n = Array.length body in
    let jumps = code.c_jumps in
    let st = inst.inst_stack in
    let peek d = Array.unsafe_get st.data (st.size - 1 - d) in
    let loc at = Location.make ~func:fidx ~instr:at in
    let mk_event ?operands ?local ~group ~at
        (build : Analysis.t -> Location.t -> Value.t array -> unit) : probe_event option =
      let gname = Hook.group_name group in
      match
        List.filter
          (fun (e : Obs.Probe.entry) ->
             Obs.Probe.site_matches e.Obs.Probe.e_spec ~group:gname ~func:fidx ~instr:at)
          (Obs.Probe.entries c.pc_mgr)
      with
      | [] -> None
      | es ->
        let here = loc at in
        let gate = Obs.Probe.gate es in
        Some
          (event ?operands ?local (fun locals ->
             if gate () then
               match c.pc_prof with
               | None -> build c.pc_analysis here locals
               | Some p ->
                 let t0 = Obs.Clock.now_ns () in
                 c.pc_mark := -1L;
                 build c.pc_marked here locals;
                 let t2 = Obs.Clock.now_ns () in
                 let t1 = if !(c.pc_mark) < 0L then t2 else !(c.pc_mark) in
                 Obs.Profile.add_time p ("hook." ^ gname) (Int64.sub t2 t0);
                 Obs.Profile.add_time p "dispatch.probe" (Int64.sub t1 t0);
                 Obs.Profile.add_time p "dispatch.analysis" (Int64.sub t2 t1)))
    in
    let pre = Array.make n [] and post = Array.make n [] in
    let any = ref false in
    let add_pre i f =
      any := true;
      pre.(i) <- f :: pre.(i)
    in
    let add_post i f =
      any := true;
      post.(i) <- f :: post.(i)
    in
    let add_pre_event i = function None -> () | Some f -> add_pre i f in
    let add_post_event i = function None -> () | Some f -> add_post i f in
    let ctrl = ref [ { k = Hook.Bfunction; cb = -1; ce = n } ] in
    let resolve_target l : Metadata.target =
      let e = List.nth !ctrl l in
      { Metadata.label = l; target_loc = loc (target_instr e) }
    in
    let ended_blocks l : Metadata.ended_block list =
      List.filteri (fun i _ -> i <= l) !ctrl
      |> List.map (fun e ->
        { Metadata.eb_kind = e.k; eb_end_loc = loc e.ce; eb_begin_instr = e.cb })
    in
    (* gated end-event closures of the blocks a branch exits, innermost
       first — each gated at its own reported location *)
    let end_events ended =
      List.filter_map
        (fun (eb : Metadata.ended_block) ->
           let begin_loc = loc eb.Metadata.eb_begin_instr in
           mk_event ~group:Hook.G_end ~at:eb.Metadata.eb_end_loc.Location.instr
             (fun a here _ -> a.Analysis.end_ here eb.Metadata.eb_kind begin_loc))
        ended
    in
    let cond_of v = not (Int32.equal (Value.as_i32 v) 0l) in
    Array.iteri
      (fun at ins ->
         match ins with
         | Nop ->
           add_post_event at
             (mk_event ~group:Hook.G_nop ~at (fun a here _ -> a.Analysis.nop here))
         | Unreachable ->
           add_pre_event at
             (mk_event ~group:Hook.G_unreachable ~at (fun a here _ ->
                a.Analysis.unreachable here))
         | Block _ ->
           ctrl := { k = Hook.Bblock; cb = at; ce = jumps.end_of.(at) } :: !ctrl;
           add_post_event at
             (mk_event ~group:Hook.G_begin ~at (fun a here _ ->
                a.Analysis.begin_ here Hook.Bblock))
         | Loop _ ->
           ctrl := { k = Hook.Bloop; cb = at; ce = jumps.end_of.(at) } :: !ctrl;
           (* on the loop-head slot, the back-branch target: fires once
              per iteration, like the AOT hook inside the loop *)
           add_pre_event (at + 1)
             (mk_event ~group:Hook.G_begin ~at (fun a here _ ->
                a.Analysis.begin_ here Hook.Bloop))
         | If _ ->
           add_pre_event at
             (mk_event ~operands:1 ~group:Hook.G_if ~at (fun a here _ ->
                a.Analysis.if_ here (cond_of (peek 0))));
           ctrl := { k = Hook.Bif; cb = at; ce = jumps.end_of.(at) } :: !ctrl;
           (* first slot of the then-branch: fires only when the
              condition was true, like the AOT hook inside the branch *)
           add_pre_event (at + 1)
             (mk_event ~group:Hook.G_begin ~at (fun a here _ ->
                a.Analysis.begin_ here Hook.Bif))
         | Else ->
           let e, rest =
             match !ctrl with
             | e :: rest -> (e, rest)
             | [] -> invalid_arg "else without open block"
           in
           ctrl := { e with k = Hook.Belse; cb = at } :: rest;
           (* reached only by the then-branch falling through *)
           let if_loc = loc e.cb in
           add_pre_event at
             (mk_event ~group:Hook.G_end ~at (fun a here _ ->
                a.Analysis.end_ here Hook.Bif if_loc));
           (* first slot of the else-branch: false-condition path only *)
           add_pre_event (at + 1)
             (mk_event ~group:Hook.G_begin ~at (fun a here _ ->
                a.Analysis.begin_ here Hook.Belse))
         | End ->
           let e, rest =
             match !ctrl with
             | e :: rest -> (e, rest)
             | [] -> invalid_arg "unbalanced end"
           in
           ctrl := rest;
           let begin_loc = loc e.cb in
           add_pre_event at
             (mk_event ~group:Hook.G_end ~at (fun a here _ ->
                a.Analysis.end_ here e.k begin_loc))
         | Br l ->
           let t = resolve_target l in
           add_pre_event at
             (mk_event ~group:Hook.G_br ~at (fun a here _ -> a.Analysis.br here t));
           List.iter (add_pre at) (end_events (ended_blocks l))
         | BrIf l ->
           let t = resolve_target l in
           add_pre_event at
             (mk_event ~operands:1 ~group:Hook.G_br_if ~at (fun a here _ ->
                a.Analysis.br_if here t (cond_of (peek 0))));
           (match end_events (ended_blocks l) with
            | [] -> ()
            | evs ->
              (* end events fire only when the branch is taken *)
              add_pre at
                (event ~operands:1 (fun locals ->
                   if cond_of (peek 0) then List.iter (fun e -> e.pe_fire locals) evs)))
         | BrTable (ls, d) ->
           let entry l = (resolve_target l, ended_blocks l) in
           let targets_info = Array.of_list (List.map entry ls) in
           let default_info = entry d in
           let targets = Array.map fst targets_info in
           let default_t = fst default_info in
           let bt_event =
             mk_event ~group:Hook.G_br_table ~at (fun a here _ ->
               a.Analysis.br_table here targets default_t
                 (Int32.to_int (Value.as_i32 (peek 0))))
           in
           let entry_ends = Array.map (fun (_, ended) -> end_events ended) targets_info in
           let default_ends = end_events (snd default_info) in
           let have_ends =
             (match default_ends with [] -> false | _ -> true)
             || Array.exists (function [] -> false | _ -> true) entry_ends
           in
           if Option.is_some bt_event || have_ends then
             add_pre at
               (event ~operands:1 (fun locals ->
                  (match bt_event with None -> () | Some e -> e.pe_fire locals);
                  if have_ends then begin
                    (* signed read, like the AOT dispatcher: a negative
                       index is >= 2^31 unsigned, out of range, default *)
                    let idx = Int32.to_int (Value.as_i32 (peek 0)) in
                    let ends =
                      if idx >= 0 && idx < Array.length entry_ends then entry_ends.(idx)
                      else default_ends
                    in
                    List.iter (fun e -> e.pe_fire locals) ends
                  end))
         | Return ->
           let arity = code.c_arity in
           add_pre_event at
             (mk_event ~operands:arity ~group:Hook.G_return ~at (fun a here _ ->
                a.Analysis.return_ here (if arity = 0 then [] else [ peek 0 ])));
           List.iter (add_pre at) (end_events (ended_blocks (List.length !ctrl - 1)))
         | Call fi ->
           let ft = func_type_of inst.inst_funcs.(fi) in
           let np = List.length ft.Types.params in
           let nr = List.length ft.Types.results in
           add_pre_event at
             (mk_event ~operands:np ~group:Hook.G_call ~at (fun a here _ ->
                let args = List.init np (fun i -> peek (np - 1 - i)) in
                a.Analysis.call_pre here fi args None));
           add_post_event at
             (mk_event ~operands:nr ~group:Hook.G_call ~at (fun a here _ ->
                a.Analysis.call_post here (if nr = 0 then [] else [ peek 0 ])))
         | CallIndirect ti ->
           let ft = inst.inst_types.(ti) in
           let np = List.length ft.Types.params in
           let nr = List.length ft.Types.results in
           add_pre_event at
             (mk_event ~operands:(np + 1) ~group:Hook.G_call ~at (fun a here _ ->
                let tbl = Value.as_i32 (peek 0) in
                let args = List.init np (fun i -> peek (np - i)) in
                a.Analysis.call_pre here (resolve_indirect_orig c tbl) args
                  (Some (Int32.to_int tbl))));
           add_post_event at
             (mk_event ~operands:nr ~group:Hook.G_call ~at (fun a here _ ->
                a.Analysis.call_post here (if nr = 0 then [] else [ peek 0 ])))
         | Drop ->
           add_pre_event at
             (mk_event ~operands:1 ~group:Hook.G_drop ~at (fun a here _ ->
                a.Analysis.drop here (peek 0)))
         | Select ->
           add_pre_event at
             (mk_event ~operands:3 ~group:Hook.G_select ~at (fun a here _ ->
                a.Analysis.select here (cond_of (peek 0)) (peek 2) (peek 1)))
         | LocalGet x | LocalSet x | LocalTee x ->
           let opn =
             Hook.local_op_name
               (match ins with
                | LocalGet _ -> Hook.Lget
                | LocalSet _ -> Hook.Lset
                | _ -> Hook.Ltee)
           in
           (* after the instruction the local holds the reported value
              for all three ops, like the AOT [local.get x] argument *)
           add_post_event at
             (mk_event ~local:x ~group:Hook.G_local ~at (fun a here locals ->
                a.Analysis.local here opn x locals.(x)))
         | GlobalGet x ->
           add_post_event at
             (mk_event ~operands:1 ~group:Hook.G_global ~at (fun a here _ ->
                a.Analysis.global here (Hook.global_op_name Hook.Gget) x (peek 0)))
         | GlobalSet x ->
           add_post_event at
             (mk_event ~group:Hook.G_global ~at (fun a here _ ->
                a.Analysis.global here (Hook.global_op_name Hook.Gset) x
                  inst.inst_globals.(x).g_value))
         | Load op ->
           let opn = string_of_instr ins in
           let addr = ref 0l in
           (match
              mk_event ~operands:1 ~group:Hook.G_load ~at (fun a here _ ->
                a.Analysis.load here opn
                  { Analysis.addr = !addr; offset = op.loffset }
                  (peek 0))
            with
            | None -> ()
            | Some ev ->
              add_pre at (event ~operands:1 (fun _ -> addr := Value.as_i32 (peek 0)));
              add_post at ev)
         | Store op ->
           let opn = string_of_instr ins in
           let addr = ref 0l in
           let v = ref (Value.I32 0l) in
           (match
              mk_event ~group:Hook.G_store ~at (fun a here _ ->
                a.Analysis.store here opn
                  { Analysis.addr = !addr; offset = op.soffset }
                  !v)
            with
            | None -> ()
            | Some ev ->
              add_pre at
                (event ~operands:2 (fun _ ->
                   v := peek 0;
                   addr := Value.as_i32 (peek 1)));
              add_post at ev)
         | MemorySize ->
           add_post_event at
             (mk_event ~operands:1 ~group:Hook.G_memory_size ~at (fun a here _ ->
                a.Analysis.memory_size here (Int32.to_int (Value.as_i32 (peek 0)))))
         | MemoryGrow ->
           let delta = ref 0 in
           (match
              mk_event ~operands:1 ~group:Hook.G_memory_grow ~at (fun a here _ ->
                a.Analysis.memory_grow here !delta
                  (Int32.to_int (Value.as_i32 (peek 0))))
            with
            | None -> ()
            | Some ev ->
              add_pre at
                (event ~operands:1 (fun _ -> delta := Int32.to_int (Value.as_i32 (peek 0))));
              add_post at ev)
         | Const v ->
           add_post_event at
             (mk_event ~group:Hook.G_const ~at (fun a here _ -> a.Analysis.const here v))
         | Test _ | Unary _ | Convert _ ->
           let opn = string_of_instr ins in
           let input = ref (Value.I32 0l) in
           (match
              mk_event ~operands:1 ~group:Hook.G_unary ~at (fun a here _ ->
                a.Analysis.unary here opn !input (peek 0))
            with
            | None -> ()
            | Some ev ->
              add_pre at (event ~operands:1 (fun _ -> input := peek 0));
              add_post at ev)
         | Compare _ | Binary _ ->
           let opn = string_of_instr ins in
           let xa = ref (Value.I32 0l) in
           let xb = ref (Value.I32 0l) in
           (match
              mk_event ~operands:1 ~group:Hook.G_binary ~at (fun a here _ ->
                a.Analysis.binary here opn !xa !xb (peek 0))
            with
            | None -> ()
            | Some ev ->
              add_pre at
                (event ~operands:2 (fun _ ->
                   xb := peek 0;
                   xa := peek 1));
              add_post at ev))
      body;
    let enter_evs =
      (if c.pc_start = Some fidx then
         match
           mk_event ~group:Hook.G_start ~at:(-1) (fun a here _ -> a.Analysis.start here)
         with
         | None -> []
         | Some f -> [ f ]
       else [])
      @
      match
        mk_event ~group:Hook.G_begin ~at:(-1) (fun a here _ ->
          a.Analysis.begin_ here Hook.Bfunction)
      with
      | None -> []
      | Some f -> [ f ]
    in
    let exit_ev =
      let fn_begin = loc (-1) in
      mk_event ~group:Hook.G_end ~at:n (fun a here _ ->
        a.Analysis.end_ here Hook.Bfunction fn_begin)
    in
    if not !any && List.is_empty enter_evs && Option.is_none exit_ev then None
    else begin
      let sites = ref [] in
      for at = n - 1 downto 0 do
        match (pre.(at), post.(at)) with
        | [], [] -> ()
        | p, q ->
          sites :=
            { site_pc = at; site_pre = compose (List.rev p); site_post = compose (List.rev q) }
            :: !sites
      done;
      Some
        {
          ph_sites = Array.of_list !sites;
          ph_enter = compose enter_evs;
          ph_exit = exit_ev;
          ph_compile = Wasm.Tier1.compile;
        }
    end

  (** Re-derive every probe-site table from the current probe set.
      Functions with at least one matching event site are marked probed
      (compiled with their sites at their next entry); the rest return to
      normal tiered execution. Nothing is compiled here. *)
  let rebuild c =
    Array.iteri
      (fun j _ ->
         match build_hooks c ~j with
         | Some ph -> probe_function c.pc_inst j ph
         | None -> unprobe_function c.pc_inst j)
      c.pc_inst.inst_code

  let detach_all c =
    Obs.Probe.detach_all c.pc_mgr;
    rebuild c

  (** Create a probe controller for an instance of an {e uninstrumented}
      module and register its snapshot-facing view on the instance:
      [Snapshot.capture] records the attached spec set, restore re-arms
      exactly that set (fresh hit counters). *)
  let create ?registry (inst : instance) (analysis : Analysis.t) : controller =
    let mark = ref (-1L) in
    let c =
      {
        pc_inst = inst;
        pc_analysis = analysis;
        pc_marked = with_mark mark analysis;
        pc_mark = mark;
        pc_mgr = Obs.Probe.create ?registry ();
        pc_prof = None;
        pc_indirect = [||];
        pc_n_imp = num_imported_funcs inst.inst_module;
        pc_start = inst.inst_module.start;
      }
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
      dispatch splits into ["dispatch.probe"] (gate + operand capture up
      to the first analysis-callback entry) and ["dispatch.analysis"]. *)
  let attach_profiler c p =
    c.pc_prof <- p;
    set_profiler c.pc_inst p

  let entries c = Obs.Probe.entries c.pc_mgr
  let all_entries c = Obs.Probe.all_entries c.pc_mgr
  let manager c = c.pc_mgr
end
