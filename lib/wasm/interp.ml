(** A complete interpreter for WebAssembly modules (MVP).

    Executes the flat instruction representation directly: for every
    function, the matching [End] (and [Else]) of each structured
    instruction, [br_table] target arrays, and straight-line run lengths
    are pre-computed once, and execution proceeds with an explicit program
    counter over a preallocated, growable, array-backed operand stack
    (one per instance, shared by all frames). The dispatch loop performs
    no list traversals, and fuel is accounted once per basic block rather
    than per instruction. It runs one instruction per dispatch: this is
    the reference tier, and fusion and the other peephole work belong
    to the closure compiler ({!Tier1}).

    Host functions (the mechanism by which Wasabi's low-level hooks are
    provided) are plain OCaml closures over value lists; values only take
    list form at that boundary and at the public {!invoke} API. *)

open Types
open Ast

(* Canonical declarations live in {!Error}; the rebindings keep the
   historical [Interp.Exhaustion] / [Interp.Link_error] names working. *)

exception Exhaustion = Error.Exhaustion
(** Raised when the configured fuel (instruction budget) runs out, or the
    call-depth limit is hit ("call stack exhausted"). *)

exception Link_error = Error.Link_error
(** Raised during instantiation: missing or mismatching imports, failing
    segment bounds, ... *)

let link_error fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

(** Pre-decoded instructions: the form the dispatch loop actually
    executes. Decoding happens once per function at instantiation time
    ({!prepare_code}) and resolves everything that the generic [Ast.instr]
    form would re-examine on every execution — operator tags ([i32.add]
    becomes its own opcode rather than [Binary (IBin (S32, Add))]), jump
    targets (absolute instruction indices instead of [End] scans),
    [br_table] targets (an [int array] with the default appended), and
    memory access shapes (width-specific opcodes carrying their static
    offset).

    Tier 1 fuses superinstructions over this stream where it knows the
    bound hook sites. *)
type xinstr =
  | XUnreachable
  | XNop
  | XBlock of int * int  (** label target (just past the matching [End]), arity *)
  | XLoop  (** label target is the next instruction *)
  | XIf of int * int  (** no-else form: end target, arity *)
  | XIfElse of int * int * int  (** else target, end target, arity *)
  | XElse of int  (** end target (falling off the then-branch) *)
  | XEnd
  | XBr of int
  | XBrIf of int
  | XBrTable of int array  (** targets with the default appended *)
  | XReturn
  | XCall of int
  | XCallIndirect of int
  | XDrop
  | XSelect
  | XLocalGet of int
  | XLocalSet of int
  | XLocalTee of int
  | XGlobalGet of int
  | XGlobalSet of int
  | XConst of Value.t
  (* width-specific memory accesses (the int is the static offset) *)
  | XI32Load of int
  | XI64Load of int
  | XF32Load of int
  | XF64Load of int
  | XI32Store of int
  | XI64Store of int
  | XF32Store of int
  | XF64Store of int
  | XLoadGen of Ast.loadop  (** packed accesses *)
  | XStoreGen of Ast.storeop
  | XMemorySize
  | XMemoryGrow
  (* operator-resolved numerics *)
  | XI32Eqz
  | XI32Bin of Ast.ibinop
  | XI32Rel of Ast.irelop
  | XI64Bin of Ast.ibinop
  | XI64Rel of Ast.irelop
  | XF64Bin of Ast.fbinop
  | XF64Rel of Ast.frelop
  | XF64Un of Ast.funop
  | XF64ConvertI32S
  | XI32TruncF64S
  (* generic fallbacks for the long tail *)
  | XTestGen of Ast.testop
  | XCompareGen of Ast.relop
  | XUnaryGen of Ast.unop
  | XBinaryGen of Ast.binop
  | XConvertGen of Ast.cvtop

(** The operand stack: a growable array with the top at [size - 1].
    Popped slots are not cleared; values they keep alive are bounded by
    the high-water mark of the stack. *)
type stack = {
  mutable data : Value.t array;
  mutable size : int;
}

(** One tier-1 activation, threaded through every compiled closure.
    [base] is the frame's operand base; [charged] mirrors tier 0's
    [charged_upto]. The typed scratch arrays are indexed by static
    slot/local index: [id]/[fd] hold i32/f64 operand slots, [il]/[fl]
    i32/f64 locals; i64 and f32 slots stay boxed at
    [st.data.(base + slot)] and i64/f32 locals in [locals]. *)
type ectx = {
  st : stack;
  locals : Value.t array;
  il : int array;
  fl : float array;
  id : int array;
  fd : float array;
  base : int;
  mutable charged : int;
}

(** Registration handle of a probe controller, so snapshot/restore can
    treat probe state explicitly: [ps_capture] returns a thunk that
    re-arms exactly the probe set attached at capture time, and
    [ps_detach_all] detaches everything (used when restoring a snapshot
    that was taken with no probes attached). *)
type probe_set = {
  ps_capture : unit -> unit -> unit;
  ps_detach_all : unit -> unit;
}

type func_inst =
  | Wasm_func of int * instance  (** index into [instance.code], closing instance *)
  | Host_func of host_func

and host_func = {
  h_type : func_type;
  h_name : string;
  h_nparams : int;
      (** [List.length h_type.params], precomputed so {!call_host} never
          walks the type per call *)
  h_fn : Value.t array -> int -> Value.t list;
      (** [h_fn args off] reads its [h_nparams] arguments from
          [args.(off) .. args.(off + h_nparams - 1)]. When called through
          {!call_host} the array is the live operand-stack buffer (zero
          copies), so the function must read every argument before it
          (transitively) pushes onto any interpreter stack. *)
  h_bind : site_binder option;
      (** site-specialised entries for tier-1 call sites (see
          {!site_binder}); [None]: array ABI only *)
}

(** One argument of a host call site whose arguments are all pushed by
    constants and [local.get]s just before the call: the constant, or a
    reader of the local in the caller's tier-1 frame ['e]. Arguments
    match the callee's parameter types. *)
and 'e site_arg =
  | Site_const of Value.t
  | Site_i32 of ('e -> int)  (** an i32 local, sign-extended native int *)
  | Site_f64 of ('e -> float)  (** an f64 local *)
  | Site_boxed of ('e -> Value.t)  (** an i64 or f32 local *)

(** Binds one such call site of a result-less host function, or [None]
    declines the site (it keeps the array ABI). Tier 1 calls an entry
    after counting the call against the governor and setting the stack
    size to the height below the (never materialised) argument pushes,
    exactly as {!call_host} leaves it for [h_fn]; a counter at the end of
    its trap-free stretch, after its own governor count. *)
and site_binder = { bind : 'e. 'e site_arg array -> 'e site_entry option }

(** What one bound call site runs: an entry doing the function's work
    with the site's arguments, read in place, or a counter that reads
    nothing, which tier 1 merges with the counted sites around it. *)
and 'e site_entry =
  | Site_entry of ('e -> unit)
  | Site_count of (unit -> unit)

and table_inst = {
  mutable t_elems : func_inst option array;
  t_max : int option;
}

and global_inst = {
  g_type : global_type;
  mutable g_value : Value.t;
}

and extern =
  | Extern_func of func_inst
  | Extern_table of table_inst
  | Extern_memory of Memory.t
  | Extern_global of global_inst

(** Pre-computed jump targets of one function body. *)
and jump_info = {
  end_of : int array;  (** for Block/Loop/If at pc, index of matching End *)
  else_of : int array;  (** for If at pc, index of Else, or -1 *)
  max_depth : int;  (** deepest block nesting, bounds the label stack *)
}

and code = {
  c_func : Ast.func;
  c_type : func_type;
  c_body : instr array;
  c_xbody : xinstr array;
      (** pre-decoded form of [c_body], same indexing; what the dispatch
          loop executes *)
  c_jumps : jump_info;
  c_arity : int;  (** number of results *)
  c_nparams : int;
  c_local_defaults : Value.t array;  (** zero values of the declared locals *)
  c_frame_size : int;  (** params + declared locals *)
  c_br_tables : int array array;
      (** for BrTable at pc: the targets with the default appended;
          [[||]] at every other pc *)
  c_run_len : int array;
      (** instructions from pc to the next control transfer, inclusive;
          the granularity of batched fuel accounting *)
  mutable c_tier : tier_state;
  mutable c_hot : int;  (** calls observed while still on tier 0 *)
  mutable c_probe : probe_hooks option;
      (** engine probes installed on this body. A probed body has no
          tier-0 form: it is compiled with its sites ([ph_compile]) at
          its first entry after the mark, and tier-up counting is
          suspended. The call path reads it only while [c_tier] is
          [T_interp], so a compiled body pays nothing for it. *)
}

(** One engine-probe event: a closure reading the frame, or a counter
    behind the one unconditional probe entry that gates it, which reads
    nothing (tier 1 merges it with the counted events around it). *)
and probe_event =
  | Probe_fire of probe_fire
  | Probe_count of Obs.Probe.entry * (unit -> unit)

(** An event closure and what it reads of the frame. The closure
    receives the frame's locals and peeks its operands off the instance
    stack ([data.(size - 1)] is the top), so whoever fires it first
    materialises the top [pe_operands] operands and local [pe_local] in
    boxed form. *)
and probe_fire = {
  pe_fire : Value.t array -> unit;
  pe_operands : int;  (** top-of-stack operands the closure peeks *)
  pe_local : int;  (** the local it reads, or [-1] *)
}

(** The events of one instruction, in firing order: [site_pre] fire
    before it executes, [site_post] after it completes and falls through
    (only installed on fall-through instructions, so a taken branch
    never reaches one). *)
and probe_site = {
  site_pc : int;
  site_pre : probe_event list;
  site_post : probe_event list;
}

(** Engine-probe instrumentation of one function body: a sparse site
    table plus frame events. [ph_enter] fires on frame entry,
    [ph_exit] only on the implicit fall-off-the-end exit (explicit
    [return]s and branches to the function label report theirs through
    their sites). [ph_compile] is the tier-1 compiler that turns the
    body and these sites into a closure ({!Tier1.compile}, which this
    module cannot name). *)
and probe_hooks = {
  ph_sites : probe_site array;  (** sorted by [site_pc] *)
  ph_enter : probe_event list;
  ph_exit : probe_event list;
  ph_compile : instance -> int -> compiled_body option;
}

(** A compiled (tier-1) function body, with one entry per argument
    source. Both build the same frame over the instance stack with its
    base at [base], and on normal return leave exactly [c_arity] boxed
    results at that base (the [exec_body] contract). [cb_enter base]
    takes every parameter boxed at [st.data.(base + j)], with the stack
    size at [base]: the engine's calling convention ({!call_wasm}).
    [cb_call caller abase] takes the parameters from the caller's
    tier-1 frame, i32/f64 ones from its typed slots [abase + j] and
    i64/f32 ones from the boxed slots where they already are, so the
    frame base is [caller.base + abase] ({!call_typed}). *)
and compiled_body = {
  cb_enter : int -> unit;
  cb_call : ectx -> int -> unit;
}

and tier_state =
  | T_interp  (** not (yet) compiled; runs on the tier-0 dispatch loop *)
  | T_compiled of compiled_body
  | T_unsupported
      (** the compiler declined this body, or deopt-on-fault distrusts
          it; stop counting and stay on tier 0 permanently *)

(** Tier-up policy installed on an instance: once a function has been
    entered [tp_threshold] times, [tp_compile] is asked for a compiled
    body ([None] marks the function unsupported). *)
and tier_policy = {
  tp_threshold : int;
  tp_compile : instance -> int -> compiled_body option;
}

and instance = {
  inst_module : module_;
  inst_types : func_type array;
  mutable inst_funcs : func_inst array;
  mutable inst_code : code array;
  mutable inst_table : table_inst option;
  mutable inst_memory : Memory.t option;
  mutable inst_globals : global_inst array;
  mutable inst_exports : (string * extern) list;
  inst_stack : stack;  (** the operand stack shared by all frames *)
  mutable fuel : int;  (** remaining instruction budget *)
  mutable steps : int;  (** total instructions executed *)
  mutable call_depth : int;
  mutable inst_prof : Obs.Profile.t option;
      (** when set, the interpreter feeds it call and per-site execution
          counts; [None] costs one match per call / per straight-line run *)
  mutable inst_tier : tier_policy option;
      (** when set, hot functions are compiled to closures and entered
          through them; [None] (the default) keeps everything on tier 0 *)
  mutable inst_gov : Governor.t option;
      (** when set, per-run budgets (deadline, growth cap, host-call
          budget) are enforced at batch boundaries / grow / host calls;
          [None] costs one match at each of those cold points *)
  mutable inst_deopt_on_fault : bool;
      (** when set, a compiled body unwound by a governor violation or
          an injected host fault is deopted: back to tier 0 permanently
          when unprobed, recompiled at its next entry when probed *)
  mutable inst_triggers : (int * (unit -> unit)) list;
      (** pending step triggers, sorted by step count: each fires once
          when [steps] first reaches its threshold, checked at batch
          charge boundaries on every tier; [[]] costs one match per
          batch. The probe controller uses them for [--probe-at step=N]
          live attach/detach. *)
  mutable inst_probes : probe_set option;
      (** the probe controller registered on this instance, if any, so
          {!Snapshot} can capture and re-arm probe state explicitly *)
}

(** Wasm implementations limit call depth; ours traps with the spec's
    "call stack exhausted" well before the OCaml stack overflows. *)
let max_call_depth = 10_000

(** Environmental unwinds — governor budget violations and injected host
    faults — are not properties of the compiled code, but a body crossed
    by one may have been cut mid-block with its scratch state abandoned;
    when [inst_deopt_on_fault] is set such bodies are not trusted again:
    an unprobed one goes back to tier 0 permanently, a probed one is
    recompiled afresh. *)
let is_fault_exn = function
  | Error.Governor_limit _ -> true
  | Value.Trap "injected host fault" -> true
  | _ -> false

let deopt_total =
  lazy
    (Obs.Metrics.counter "wasabi_deopt_total"
       ~help:"Compiled bodies deopted after a governor violation or injected host fault")

(** A probed body has no tier-0 form: when tier 1 declines one, its
    probes cannot run, and that is reported rather than silently run
    without them. *)
let probe_declined j =
  Error.hook_error ~code:"probe-unsupported"
    "tier 1 declined probed function %d (defined index); its probes cannot run" j

let func_type_of = function
  | Wasm_func (idx, inst) -> inst.inst_code.(idx).c_type
  | Host_func h -> h.h_type

(** Compute matching [End]/[Else] indices for every structured instruction. *)
let compute_jumps (body : instr array) : jump_info =
  let n = Array.length body in
  let end_of = Array.make n (-1) in
  let else_of = Array.make n (-1) in
  let stack = ref [] in
  let depth = ref 0 and max_depth = ref 0 in
  for pc = 0 to n - 1 do
    match body.(pc) with
    | Block _ | Loop _ | If _ ->
      stack := pc :: !stack;
      incr depth;
      if !depth > !max_depth then max_depth := !depth
    | Else ->
      (match !stack with
       | open_pc :: _ -> else_of.(open_pc) <- pc
       | [] -> Error.decode_error ~code:"control" "else without open block")
    | End ->
      (match !stack with
       | open_pc :: rest ->
         end_of.(open_pc) <- pc;
         stack := rest;
         decr depth
       | [] -> Error.decode_error ~code:"control" "unbalanced end")
    | _ -> ()
  done;
  if !stack <> [] then Error.decode_error ~code:"control" "unclosed block";
  { end_of; else_of; max_depth = !max_depth }

let bt_arity : block_type -> int = function None -> 0 | Some _ -> 1

(** Single-instruction decode: resolve operators and jump targets. *)
let decode_instr ~(end_of : int array) ~(else_of : int array)
    ~(else_end : int array) ~(br_tables : int array array) pc (i : instr) : xinstr =
  match i with
  | Unreachable -> XUnreachable
  | Nop -> XNop
  | Block bt -> XBlock (end_of.(pc) + 1, bt_arity bt)
  | Loop _ -> XLoop
  | If bt ->
    if else_of.(pc) >= 0 then XIfElse (else_of.(pc) + 1, end_of.(pc) + 1, bt_arity bt)
    else XIf (end_of.(pc) + 1, bt_arity bt)
  | Else -> XElse else_end.(pc)
  | End -> XEnd
  | Br k -> XBr k
  | BrIf k -> XBrIf k
  | BrTable _ -> XBrTable br_tables.(pc)
  | Return -> XReturn
  | Call fidx -> XCall fidx
  | CallIndirect tidx -> XCallIndirect tidx
  | Drop -> XDrop
  | Select -> XSelect
  | LocalGet x -> XLocalGet x
  | LocalSet x -> XLocalSet x
  | LocalTee x -> XLocalTee x
  | GlobalGet x -> XGlobalGet x
  | GlobalSet x -> XGlobalSet x
  | Const v -> XConst v
  | Load { lty = I32T; loffset; lpack = None; _ } -> XI32Load loffset
  | Load { lty = I64T; loffset; lpack = None; _ } -> XI64Load loffset
  | Load { lty = F32T; loffset; lpack = None; _ } -> XF32Load loffset
  | Load { lty = F64T; loffset; lpack = None; _ } -> XF64Load loffset
  | Load op -> XLoadGen op
  | Store { sty = I32T; soffset; spack = None; _ } -> XI32Store soffset
  | Store { sty = I64T; soffset; spack = None; _ } -> XI64Store soffset
  | Store { sty = F32T; soffset; spack = None; _ } -> XF32Store soffset
  | Store { sty = F64T; soffset; spack = None; _ } -> XF64Store soffset
  | Store op -> XStoreGen op
  | MemorySize -> XMemorySize
  | MemoryGrow -> XMemoryGrow
  | Test (IEqz S32) -> XI32Eqz
  | Test op -> XTestGen op
  | Compare (IRel (S32, r)) -> XI32Rel r
  | Compare (IRel (S64, r)) -> XI64Rel r
  | Compare (FRel (SF64, r)) -> XF64Rel r
  | Compare op -> XCompareGen op
  | Unary (FUn (SF64, u)) -> XF64Un u
  | Unary op -> XUnaryGen op
  | Binary (IBin (S32, op)) -> XI32Bin op
  | Binary (IBin (S64, op)) -> XI64Bin op
  | Binary (FBin (SF64, op)) -> XF64Bin op
  | Binary op -> XBinaryGen op
  | Convert F64ConvertI32S -> XF64ConvertI32S
  | Convert I32TruncF64S -> XI32TruncF64S
  | Convert op -> XConvertGen op

(** Pre-compute everything the dispatch loop needs about one function:
    side tables, and the pre-decoded (operator-resolved) instruction
    array that execution actually runs over. *)
let prepare_code (types : func_type array) (f : Ast.func) : code =
  let body = Array.of_list f.body in
  let jumps = compute_jumps body in
  let end_of = jumps.end_of and else_of = jumps.else_of in
  let ftype = types.(f.ftype) in
  let nparams = List.length ftype.params in
  let local_defaults = Array.of_list (List.map Value.default f.locals) in
  let n = Array.length body in
  let br_tables = Array.make n [||] in
  let run_len = Array.make n 1 in
  for pc = n - 1 downto 0 do
    match body.(pc) with
    | BrTable (ls, d) ->
      let tbl = Array.make (List.length ls + 1) d in
      List.iteri (fun i k -> tbl.(i) <- k) ls;
      br_tables.(pc) <- tbl
    | If _ | Else | Br _ | BrIf _ | Return | Unreachable -> ()
    | _ -> if pc < n - 1 then run_len.(pc) <- run_len.(pc + 1) + 1
  done;
  (* the end target of each [Else]: just past its [If]'s [End] *)
  let else_end = Array.make (max n 1) 0 in
  Array.iteri (fun pc e -> if e >= 0 then else_end.(e) <- end_of.(pc) + 1) else_of;
  let xbody = Array.mapi (decode_instr ~end_of ~else_of ~else_end ~br_tables) body in
  {
    c_func = f;
    c_type = ftype;
    c_body = body;
    c_xbody = xbody;
    c_jumps = jumps;
    c_arity = List.length ftype.results;
    c_nparams = nparams;
    c_local_defaults = local_defaults;
    c_frame_size = nparams + Array.length local_defaults;
    c_br_tables = br_tables;
    c_run_len = run_len;
    c_tier = T_interp;
    c_hot = 0;
    c_probe = None;
  }

(** {1 Execution} *)

let dummy_value = Value.I32 0l

let create_stack () = { data = Array.make 256 dummy_value; size = 0 }

let grow_stack st =
  let data = Array.make (2 * Array.length st.data) dummy_value in
  Array.blit st.data 0 data 0 st.size;
  st.data <- data

(** Grow the backing array until it holds at least [cap] slots. Tier-1
    bodies reserve their whole frame up front so compiled slot accesses
    need no per-operation bounds checks. *)
let stack_reserve st cap = while Array.length st.data < cap do grow_stack st done

let push st v =
  if st.size = Array.length st.data then grow_stack st;
  Array.unsafe_set st.data st.size v;
  st.size <- st.size + 1

let pop st =
  if st.size = 0 then raise (Value.Trap "value stack underflow (engine bug)");
  st.size <- st.size - 1;
  Array.unsafe_get st.data st.size

(** Pop [n] values; the result lists them bottom-to-top (first function
    argument first). The loop below iterates in a defined order — unlike
    side-effecting pops inside [List.init], whose evaluation order the
    stdlib does not specify. *)
let pop_n st n =
  if st.size < n then raise (Value.Trap "value stack underflow (engine bug)");
  let base = st.size - n in
  let rec build i acc = if i < base then acc else build (i - 1) (st.data.(i) :: acc) in
  let vs = build (st.size - 1) [] in
  st.size <- base;
  vs

let pop_i32 st = Value.as_i32 (pop st)

let default_fuel = max_int

(** Fire every pending step trigger whose threshold has been reached.
    A trigger is removed {e before} it runs, so a trigger that attaches
    or detaches probes (or schedules further triggers) is safe. Called
    at batch charge boundaries on all tiers. *)
let rec fire_triggers inst =
  match inst.inst_triggers with
  | (at, f) :: rest when at <= inst.steps ->
    inst.inst_triggers <- rest;
    f ();
    fire_triggers inst
  | _ -> ()

let rec invoke (f : func_inst) (args : Value.t list) : Value.t list =
  match f with
  | Host_func h ->
    if List.length args <> h.h_nparams then
      raise (Value.Trap "argument count mismatch");
    h.h_fn (Array.of_list args) 0
  | Wasm_func (idx, inst) ->
    let code = inst.inst_code.(idx) in
    if List.length args <> code.c_nparams then
      raise (Value.Trap "argument count mismatch");
    let st = inst.inst_stack in
    List.iter (push st) args;
    call_wasm inst idx st;
    pop_n st code.c_arity

(** Call function [idx] of [cinst] with its arguments on top of
    [from_st]; afterwards the results are there instead. The arguments
    stay where they are and become the callee's frame base, so when
    caller and callee share the instance (the common case) nothing is
    copied either way; a call from another instance moves them over
    first and the results back after. *)
and call_wasm (cinst : instance) (idx : int) (from_st : stack) : unit =
  let code = cinst.inst_code.(idx) in
  if cinst.call_depth >= max_call_depth then
    raise (Exhaustion "call stack exhausted");
  let np = code.c_nparams in
  if from_st.size < np then raise (Value.Trap "value stack underflow (engine bug)");
  let st = cinst.inst_stack in
  if st != from_st then begin
    let b = from_st.size - np in
    for i = b to b + np - 1 do
      push st from_st.data.(i)
    done;
    from_st.size <- b
  end;
  let base = st.size - np in
  st.size <- base;
  cinst.call_depth <- cinst.call_depth + 1;
  (match cinst.inst_prof with None -> () | Some p -> Obs.Profile.enter p idx);
  (try enter_body cinst idx code base with
   | e ->
     (match cinst.inst_prof with None -> () | Some p -> Obs.Profile.leave p);
     cinst.call_depth <- cinst.call_depth - 1;
     st.size <- base;
     raise e);
  (match cinst.inst_prof with None -> () | Some p -> Obs.Profile.leave p);
  cinst.call_depth <- cinst.call_depth - 1;
  if st != from_st then begin
    (* cross-instance call: move the results over *)
    for i = base to base + code.c_arity - 1 do
      push from_st st.data.(i)
    done;
    st.size <- base
  end

(** Tier dispatch for a frame whose boxed arguments sit at [base] (the
    stack size): run the compiled body when one is cached, otherwise
    compile a probed body at once, or count the call against the
    instance's tier policy and compile at the threshold. Tier state
    lives on [code], so one compilation serves every future call. *)
and enter_body cinst (idx : int) (code : code) (base : int) : unit =
  match code.c_tier with
  | T_compiled f when not cinst.inst_deopt_on_fault ->
    (match cinst.inst_prof with
     | None -> f.cb_enter base
     | Some p -> Obs.Profile.time p "tier.execute" (fun () -> f.cb_enter base))
  | T_compiled f ->
    (* deopt-on-fault: every compiled frame on the unwind path of a
       governor violation or injected host fault is distrusted. An
       unprobed body goes back to tier 0 for good; a probed one has no
       tier-0 form, so it is recompiled with its sites at its next
       entry *)
    (try
       match cinst.inst_prof with
       | None -> f.cb_enter base
       | Some p -> Obs.Profile.time p "tier.execute" (fun () -> f.cb_enter base)
     with e when is_fault_exn e ->
       code.c_tier <- (match code.c_probe with None -> T_unsupported | Some _ -> T_interp);
       Obs.Metrics.inc (Lazy.force deopt_total);
       (match cinst.inst_prof with None -> () | Some p -> Obs.Profile.count p "tier.deopt");
       raise e)
  | T_unsupported -> exec_frame cinst idx code base
  | T_interp ->
    (match code.c_probe with
     | Some ph ->
       (* probes imply tier 1, with or without a tier policy *)
       if not (tier_up cinst idx code base ph.ph_compile) then probe_declined idx
     | None ->
       (match cinst.inst_tier with
        | None -> exec_frame cinst idx code base
        | Some tp ->
          let hot = code.c_hot + 1 in
          code.c_hot <- hot;
          if hot < tp.tp_threshold then exec_frame cinst idx code base
          else if not (tier_up cinst idx code base tp.tp_compile) then begin
            code.c_tier <- T_unsupported;
            (match cinst.inst_prof with
             | None -> ()
             | Some p -> Obs.Profile.count p "tier.unsupported");
            exec_frame cinst idx code base
          end))

(** Compile [code] and, when the compiler accepts it, cache the result
    and run this frame on it (through {!enter_body}, so deopt-on-fault
    covers the first compiled frame too); [false], with nothing run,
    when it declines. *)
and tier_up cinst idx code base compile =
  let compiled =
    match cinst.inst_prof with
    | None -> compile cinst idx
    | Some p -> Obs.Profile.time p "tier.compile" (fun () -> compile cinst idx)
  in
  match compiled with
  | None -> false
  | Some f ->
    code.c_tier <- T_compiled f;
    (match cinst.inst_prof with None -> () | Some p -> Obs.Profile.count p "tier.up");
    enter_body cinst idx code base;
    true

(** Run [code] on tier 0 as a frame whose boxed arguments sit at [base]
    (the stack size): the boxed locals array is built only here. *)
and exec_frame cinst idx code base =
  let locals = Array.make code.c_frame_size dummy_value in
  let st = cinst.inst_stack in
  Array.blit st.data base locals 0 code.c_nparams;
  Array.blit code.c_local_defaults 0 locals code.c_nparams
    (Array.length code.c_local_defaults);
  exec_body cinst idx code locals

(* The arguments are handed to the host function in place: the stack is
   shrunk below them first, and [h_fn] reads them straight out of the
   buffer at the old base — no list, no copy. Values above [size] are
   dead-but-intact until something pushes, and the [h_fn] contract
   (see {!host_func}) requires all reads to happen before that. *)
and call_host (inst : instance) (h : host_func) (st : stack) : unit =
  (match inst.inst_gov with None -> () | Some g -> Governor.count_host_call g);
  if st.size < h.h_nparams then
    raise (Value.Trap "value stack underflow (engine bug)");
  let base = st.size - h.h_nparams in
  st.size <- base;
  match h.h_fn st.data base with
  | [] -> ()
  | results -> List.iter (push st) results

(** Run [code] with the operand base at the current stack size; on normal
    exit exactly [c_arity] results sit at that base. *)
and exec_body inst (fid : int) (code : code) (locals : Value.t array) : unit =
  let xbody = code.c_xbody in
  let run_len = code.c_run_len in
  let n = Array.length xbody in
  let arity = code.c_arity in
  let st = inst.inst_stack in
  let base = st.size in
  (* label stack: flat [| target; height; arity; is_loop |] records *)
  let lbl = Array.make (4 * code.c_jumps.max_depth) 0 in
  let nlbl = ref 0 in
  let pc = ref 0 in
  let running = ref true in
  (* fuel and steps are charged for a whole straight-line run at once:
     positions below [charged_upto] on the current run are paid for; any
     control transfer resets it so the target's run is charged afresh *)
  let charged_upto = ref 0 in
  let mem = inst.inst_memory in
  let memory () =
    match mem with Some m -> m | None -> raise (Value.Trap "no memory")
  in
  let ret () =
    if st.size - arity < base then
      raise (Value.Trap "value stack underflow (engine bug)");
    Array.blit st.data (st.size - arity) st.data base arity;
    st.size <- base + arity;
    running := false
  in
  let push_label target height larity is_loop =
    let o = 4 * !nlbl in
    lbl.(o) <- target;
    lbl.(o + 1) <- height;
    lbl.(o + 2) <- larity;
    lbl.(o + 3) <- is_loop;
    incr nlbl
  in
  (* Take the branch with relative label [k] from the current position. *)
  let branch k =
    if k >= !nlbl then ret ()
    else begin
      let o = 4 * (!nlbl - 1 - k) in
      let height = lbl.(o + 1) and larity = lbl.(o + 2) in
      Array.blit st.data (st.size - larity) st.data height larity;
      st.size <- height + larity;
      (* a loop label survives its branch, a block label does not *)
      nlbl := !nlbl - k - 1 + lbl.(o + 3);
      pc := lbl.(o);
      charged_upto := 0
    end
  in
  while !running do
    if !pc >= n then
      (* implicit end of the function body *)
      ret ()
    else begin
      if !pc >= !charged_upto then begin
        if inst.fuel <= 0 then raise (Exhaustion "out of fuel");
        (match inst.inst_gov with None -> () | Some g -> Governor.check_batch g);
        let k = Array.unsafe_get run_len !pc in
        inst.steps <- inst.steps + k;
        inst.fuel <- inst.fuel - k;
        charged_upto := !pc + k;
        (match inst.inst_prof with
         | None -> ()
         | Some p -> Obs.Profile.bump_run p ~fid ~body_len:n ~pc:!pc ~len:k);
        match inst.inst_triggers with
        | [] -> ()
        | _ -> fire_triggers inst
      end;
      match Array.unsafe_get xbody !pc with
      | XNop -> incr pc
      | XUnreachable -> raise (Value.Trap "unreachable executed")
      | XBlock (target, larity) ->
        push_label target st.size larity 0;
        incr pc
      | XLoop ->
        (* a loop label has no results in the MVP *)
        push_label (!pc + 1) st.size 0 1;
        incr pc
      | XIf (end_target, larity) ->
        let cond = pop_i32 st in
        if not (Int32.equal cond 0l) then begin
          push_label end_target st.size larity 0;
          incr pc
        end
        else begin
          (* no else: skip past the End; no label needed *)
          pc := end_target;
          charged_upto := 0
        end
      | XIfElse (else_target, end_target, larity) ->
        let cond = pop_i32 st in
        push_label end_target st.size larity 0;
        if not (Int32.equal cond 0l) then incr pc
        else begin
          pc := else_target;
          charged_upto := 0
        end
      | XElse end_target ->
        (* falling off the then-branch: the block is done *)
        if !nlbl = 0 then raise (Value.Trap "else without label (engine bug)");
        decr nlbl;
        pc := end_target;
        charged_upto := 0
      | XEnd ->
        if !nlbl = 0 then raise (Value.Trap "end without label (engine bug)");
        decr nlbl;
        incr pc
      | XBr k -> branch k
      | XBrIf k ->
        let cond = pop_i32 st in
        if Int32.equal cond 0l then incr pc else branch k
      | XBrTable tbl ->
        let idx32 = pop_i32 st in
        let idx = Int64.to_int (Int64.logand (Int64.of_int32 idx32) 0xFFFFFFFFL) in
        let last = Array.length tbl - 1 in
        branch (if idx < last then tbl.(idx) else tbl.(last))
      | XReturn -> ret ()
      | XCall fidx ->
        (match inst.inst_funcs.(fidx) with
         | Wasm_func (j, ci) -> call_wasm ci j st
         | Host_func h -> call_host inst h st);
        incr pc
      | XCallIndirect tidx ->
        let expected = inst.inst_types.(tidx) in
        let i = pop_i32 st in
        let table =
          match inst.inst_table with
          | Some t -> t
          | None -> raise (Value.Trap "no table")
        in
        let i = Int64.to_int (Int64.logand (Int64.of_int32 i) 0xFFFFFFFFL) in
        if i >= Array.length table.t_elems then
          raise (Value.Trap "undefined element");
        (match table.t_elems.(i) with
         | None -> raise (Value.Trap "uninitialized element")
         | Some callee ->
           if not (equal_func_type (func_type_of callee) expected) then
             raise (Value.Trap "indirect call type mismatch");
           (match callee with
            | Wasm_func (j, ci) -> call_wasm ci j st
            | Host_func h -> call_host inst h st));
        incr pc
      | XDrop ->
        ignore (pop st);
        incr pc
      | XSelect ->
        let cond = pop_i32 st in
        let b = pop st in
        let a = pop st in
        push st (if Int32.equal cond 0l then b else a);
        incr pc
      | XLocalGet x ->
        push st locals.(x);
        incr pc
      | XLocalSet x ->
        locals.(x) <- pop st;
        incr pc
      | XLocalTee x ->
        if st.size = 0 then raise (Value.Trap "stack underflow (engine bug)");
        locals.(x) <- st.data.(st.size - 1);
        incr pc
      | XGlobalGet x ->
        push st inst.inst_globals.(x).g_value;
        incr pc
      | XGlobalSet x ->
        inst.inst_globals.(x).g_value <- pop st;
        incr pc
      | XConst v ->
        push st v;
        incr pc
      | XI32Load off ->
        push st (Value.I32 (Memory.load_i32 (memory ()) (pop_i32 st) off));
        incr pc
      | XI64Load off ->
        push st (Value.I64 (Memory.load_i64 (memory ()) (pop_i32 st) off));
        incr pc
      | XF32Load off ->
        push st (Value.F32 (Memory.load_f32_bits (memory ()) (pop_i32 st) off));
        incr pc
      | XF64Load off ->
        push st (Value.F64 (Memory.load_f64 (memory ()) (pop_i32 st) off));
        incr pc
      | XI32Store off ->
        let v = pop_i32 st in
        let addr = pop_i32 st in
        Memory.store_i32 (memory ()) addr off v;
        incr pc
      | XI64Store off ->
        let v = Value.as_i64 (pop st) in
        let addr = pop_i32 st in
        Memory.store_i64 (memory ()) addr off v;
        incr pc
      | XF32Store off ->
        let v = Value.as_f32_bits (pop st) in
        let addr = pop_i32 st in
        Memory.store_f32_bits (memory ()) addr off v;
        incr pc
      | XF64Store off ->
        let v = Value.as_f64 (pop st) in
        let addr = pop_i32 st in
        Memory.store_f64 (memory ()) addr off v;
        incr pc
      | XLoadGen op ->
        let addr = pop_i32 st in
        push st (Memory.load (memory ()) op addr);
        incr pc
      | XStoreGen op ->
        let v = pop st in
        let addr = pop_i32 st in
        Memory.store (memory ()) op addr v;
        incr pc
      | XMemorySize ->
        push st (Value.i32_of_int (Memory.size_pages (memory ())));
        incr pc
      | XMemoryGrow ->
        let delta = Int32.to_int (pop_i32 st) in
        let old =
          match inst.inst_gov with
          | None -> Memory.grow (memory ()) delta
          | Some g -> Governor.governed_grow g (memory ()) delta
        in
        push st (Value.i32_of_int old);
        incr pc
      | XI32Eqz ->
        push st (Value.i32_of_bool (Int32.equal (pop_i32 st) 0l));
        incr pc
      | XI32Bin op ->
        let b = pop_i32 st in
        let a = pop_i32 st in
        push st (Value.I32 (Eval_numeric.ibinop_i32 op a b));
        incr pc
      | XI32Rel r ->
        let b = pop_i32 st in
        let a = pop_i32 st in
        push st (Value.i32_of_bool (Eval_numeric.irelop_impl_i32 r a b));
        incr pc
      | XI64Bin op ->
        let b = Value.as_i64 (pop st) in
        let a = Value.as_i64 (pop st) in
        push st (Value.I64 (Eval_numeric.ibinop_i64 op a b));
        incr pc
      | XI64Rel r ->
        let b = Value.as_i64 (pop st) in
        let a = Value.as_i64 (pop st) in
        push st (Value.i32_of_bool (Eval_numeric.irelop_impl_i64 r a b));
        incr pc
      | XF64Bin op ->
        let b = Value.as_f64 (pop st) in
        let a = Value.as_f64 (pop st) in
        push st (Value.F64 (Eval_numeric.fbinop_impl op a b));
        incr pc
      | XF64Rel r ->
        let b = Value.as_f64 (pop st) in
        let a = Value.as_f64 (pop st) in
        push st (Value.i32_of_bool (Eval_numeric.frelop_impl r a b));
        incr pc
      | XF64Un u ->
        push st (Value.F64 (Eval_numeric.funop_impl u (Value.as_f64 (pop st))));
        incr pc
      | XF64ConvertI32S ->
        push st (Value.F64 (Int32.to_float (pop_i32 st)));
        incr pc
      | XI32TruncF64S ->
        push st (Value.I32 (Value.Cvt.i32_trunc_s (Value.as_f64 (pop st))));
        incr pc
      | XTestGen op ->
        let v = pop st in
        push st (Eval_numeric.eval_testop op v);
        incr pc
      | XCompareGen op ->
        let b = pop st in
        let a = pop st in
        push st (Eval_numeric.eval_relop op a b);
        incr pc
      | XUnaryGen op ->
        let v = pop st in
        push st (Eval_numeric.eval_unop op v);
        incr pc
      | XBinaryGen op ->
        let b = pop st in
        let a = pop st in
        push st (Eval_numeric.eval_binop op a b);
        incr pc
      | XConvertGen op ->
        let v = pop st in
        push st (Eval_numeric.eval_cvtop op v);
        incr pc
    end
  done

(** A call from a tier-1 frame [caller] of [inst] to a compiled body
    [cb] of the same instance, its arguments in the caller's slots from
    [abase] on: {!call_wasm} without the boxing. Depth limit, depth
    accounting and the unwind restore are [call_wasm]'s; a profiler and
    deopt-on-fault, which wrap the frame, are left to [call_wasm], so
    the caller takes this entry only when neither is on. *)
let call_typed inst (cb : compiled_body) (caller : ectx) abase =
  if inst.call_depth >= max_call_depth then raise (Exhaustion "call stack exhausted");
  let st = caller.st in
  let base = caller.base + abase in
  st.size <- base;
  inst.call_depth <- inst.call_depth + 1;
  (try cb.cb_call caller abase with
   | e ->
     inst.call_depth <- inst.call_depth - 1;
     st.size <- base;
     raise e);
  inst.call_depth <- inst.call_depth - 1

(** {1 Instantiation} *)

(** Import resolution: maps (module name, item name) to an extern. *)
type imports = (string * string * extern) list

let lookup_import (imports : imports) module_name item_name =
  let rec go = function
    | [] -> link_error "unknown import %s.%s" module_name item_name
    | (m, n, ext) :: rest ->
      if String.equal m module_name && String.equal n item_name then ext else go rest
  in
  go imports

let eval_const_expr (globals : global_inst array) = function
  | [ Const v ] -> v
  | [ GlobalGet i ] -> globals.(i).g_value
  | _ -> link_error "unsupported constant expression"

(** Instantiate a module: resolve imports, allocate table/memory/globals,
    apply element and data segments, and run the start function. The
    module is assumed to be valid (run {!Validate.validate_module} first). *)
let instantiate ?(fuel = default_fuel) ?resolve_import ~(imports : imports) (m : module_) : instance =
  let inst =
    {
      inst_module = m;
      inst_types = Array.of_list m.types;
      inst_funcs = [||];
      inst_code = [||];
      inst_table = None;
      inst_memory = None;
      inst_globals = [||];
      inst_exports = [];
      inst_stack = create_stack ();
      fuel;
      steps = 0;
      call_depth = 0;
      inst_prof = None;
      inst_tier = None;
      inst_gov = None;
      inst_deopt_on_fault = false;
      inst_triggers = [];
      inst_probes = None;
    }
  in
  (* imported entities, in import order *)
  let imp_funcs = ref [] and imp_tables = ref [] and imp_mems = ref [] and imp_globals = ref [] in
  List.iteri
    (fun i imp ->
       let ext =
         (* positional resolution first (O(1) for the instrumenter's hook
            imports), then the name-keyed list as the general fallback *)
         match resolve_import with
         | None -> lookup_import imports imp.module_name imp.item_name
         | Some resolve ->
           (match resolve i imp with
            | Some ext -> ext
            | None -> lookup_import imports imp.module_name imp.item_name)
       in
       match imp.idesc, ext with
       | FuncImport ti, Extern_func f ->
         let expected = inst.inst_types.(ti) in
         if not (equal_func_type (func_type_of f) expected) then
           link_error "import %s.%s: function type mismatch (expected %s, got %s)"
             imp.module_name imp.item_name
             (string_of_func_type expected)
             (string_of_func_type (func_type_of f));
         imp_funcs := f :: !imp_funcs
       | TableImport _, Extern_table t -> imp_tables := t :: !imp_tables
       | MemoryImport _, Extern_memory mem -> imp_mems := mem :: !imp_mems
       | GlobalImport gt, Extern_global g ->
         if g.g_type <> gt then link_error "import %s.%s: global type mismatch" imp.module_name imp.item_name;
         imp_globals := g :: !imp_globals
       | _, _ -> link_error "import %s.%s: kind mismatch" imp.module_name imp.item_name)
    m.imports;
  let imp_funcs = List.rev !imp_funcs in
  let imp_tables = List.rev !imp_tables in
  let imp_mems = List.rev !imp_mems in
  let imp_globals = List.rev !imp_globals in
  (* code for module-defined functions, with all side tables precomputed *)
  inst.inst_code <- Array.of_list (List.map (prepare_code inst.inst_types) m.funcs);
  inst.inst_funcs <-
    Array.of_list
      (imp_funcs @ List.mapi (fun i _ -> Wasm_func (i, inst)) m.funcs);
  (* table *)
  inst.inst_table <-
    (match imp_tables, m.tables with
     | [ t ], [] -> Some t
     | [], [ tt ] ->
       Some
         {
           t_elems = Array.make tt.tbl_limits.lim_min None;
           t_max = tt.tbl_limits.lim_max;
         }
     | [], [] -> None
     | _ -> link_error "multiple tables");
  (* memory *)
  inst.inst_memory <-
    (match imp_mems, m.memories with
     | [ mem ], [] -> Some mem
     | [], [ mt ] ->
       Some (Memory.create ~min_pages:mt.mem_limits.lim_min ~max_pages:mt.mem_limits.lim_max)
     | [], [] -> None
     | _ -> link_error "multiple memories");
  (* globals: imported first, then defined (initialisers may only refer to
     imported globals, which are already available) *)
  let imported_globals = Array.of_list imp_globals in
  let defined_globals =
    List.map
      (fun g -> { g_type = g.gtype; g_value = eval_const_expr imported_globals g.ginit })
      m.globals
  in
  inst.inst_globals <- Array.append imported_globals (Array.of_list defined_globals);
  (* element segments *)
  List.iter
    (fun e ->
       let table =
         match inst.inst_table with
         | Some t -> t
         | None -> link_error "element segment without table"
       in
       let offset = Int32.to_int (Value.as_i32 (eval_const_expr imported_globals e.eoffset)) in
       if offset < 0 || offset + List.length e.einit > Array.length table.t_elems then
         link_error "element segment out of bounds";
       List.iteri
         (fun i fidx -> table.t_elems.(offset + i) <- Some inst.inst_funcs.(fidx))
         e.einit)
    m.elems;
  (* data segments *)
  List.iter
    (fun d ->
       let mem =
         match inst.inst_memory with
         | Some mem -> mem
         | None -> link_error "data segment without memory"
       in
       let offset = Int32.to_int (Value.as_i32 (eval_const_expr imported_globals d.doffset)) in
       (try Memory.store_string mem ~at:offset d.dinit
        with Value.Trap _ -> link_error "data segment out of bounds"))
    m.datas;
  inst.inst_exports <-
    List.map
      (fun e ->
         let ext =
           match e.edesc with
           | FuncExport i -> Extern_func inst.inst_funcs.(i)
           | TableExport _ -> Extern_table (Option.get inst.inst_table)
           | MemoryExport _ -> Extern_memory (Option.get inst.inst_memory)
           | GlobalExport i -> Extern_global inst.inst_globals.(i)
         in
         (e.name, ext))
      m.exports;
  (match m.start with
   | None -> ()
   | Some f -> ignore (invoke inst.inst_funcs.(f) []));
  inst

(** Fork a cheap copy-on-write clone of [src]: the module, type table,
    pre-decoded instruction streams and all per-function side tables
    (jump maps, br_table layouts, run lengths, local defaults) are shared
    — they are immutable after {!instantiate} — while everything mutable
    (memory, globals, table, operand stack, fuel/step accounting) is
    copied. Function references owned by [src] are remapped to the fork,
    so calls inside the fork execute against the fork's state.

    The fork starts de-tiered (fresh [code] records with [T_interp] /
    zero hotness) and without profiler, governor, triggers or probes:
    tier-1 closures and probed bodies close over their compile-time
    instance and must be re-established per fork (e.g. via
    [Tier1.compile_all]). [?wrap_import] substitutes imported host
    functions by overall function index — the serve layer uses it to
    rebind hook imports to the fork's own runtime. The start function is
    not re-run: the fork reproduces [src]'s current state, not a fresh
    instantiation. *)
let fork ?wrap_import (src : instance) : instance =
  let inst =
    {
      inst_module = src.inst_module;
      inst_types = src.inst_types;
      inst_funcs = [||];
      inst_code =
        Array.map (fun c -> { c with c_tier = T_interp; c_hot = 0; c_probe = None })
          src.inst_code;
      inst_table = None;
      inst_memory = Option.map Memory.clone src.inst_memory;
      inst_globals =
        Array.map (fun g -> { g_type = g.g_type; g_value = g.g_value }) src.inst_globals;
      inst_exports = [];
      inst_stack = create_stack ();
      fuel = src.fuel;
      steps = src.steps;
      call_depth = 0;
      inst_prof = None;
      inst_tier = None;
      inst_gov = None;
      inst_deopt_on_fault = src.inst_deopt_on_fault;
      inst_triggers = [];
      inst_probes = None;
    }
  in
  let remap_owner = function
    | Wasm_func (j, owner) when owner == src -> Wasm_func (j, inst)
    | f -> f
  in
  inst.inst_funcs <-
    Array.mapi
      (fun i f ->
         match f, wrap_import with
         | Host_func h, Some wrap -> Host_func (wrap i h)
         | _ -> remap_owner f)
      src.inst_funcs;
  inst.inst_table <-
    Option.map
      (fun tb ->
         { t_elems = Array.map (Option.map remap_owner) tb.t_elems; t_max = tb.t_max })
      src.inst_table;
  inst.inst_exports <-
    List.map
      (fun e ->
         let ext =
           match e.edesc with
           | FuncExport i -> Extern_func inst.inst_funcs.(i)
           | TableExport _ -> Extern_table (Option.get inst.inst_table)
           | MemoryExport _ -> Extern_memory (Option.get inst.inst_memory)
           | GlobalExport i -> Extern_global inst.inst_globals.(i)
         in
         (e.name, ext))
      src.inst_module.exports;
  inst

(** {1 Convenience API} *)

let set_profiler inst p = inst.inst_prof <- p
let set_governor inst g = inst.inst_gov <- g
let set_deopt_on_fault inst b = inst.inst_deopt_on_fault <- b

(** Install (or remove) a tier-up policy. Cached compiled bodies and hot
    counts are discarded so a policy change takes effect from the next
    call — in particular [set_tier inst None] is a full deopt back to
    the reference interpreter. *)
let set_tier inst policy =
  inst.inst_tier <- policy;
  Array.iter
    (fun c ->
       c.c_tier <- T_interp;
       c.c_hot <- 0)
    inst.inst_code

(** {1 Engine probes}

    Attach/detach of hooked bodies on defined functions. Indexing is by
    {e defined}-function index (the [inst_code] index), not the original
    module function index — the layer that owns the import space
    ([Wasabi.Runtime.Probe]) translates. *)

(** Mark defined function [j] probed with [ph]. Nothing is compiled
    here: any compiled closure is dropped, the body is compiled with its
    sites at its next entry (frames already on the stack finish on the
    code they entered with), and tier-up counting is suspended until
    {!unprobe_function}. Only a body tier 1 has already given up on
    ([T_unsupported]) is compiled on the spot, so that a decline fails
    here, before any event could be lost. *)
let probe_function inst j (ph : probe_hooks) =
  let c = inst.inst_code.(j) in
  let prev = c.c_probe in
  c.c_probe <- Some ph;
  c.c_hot <- 0;
  c.c_tier <-
    (match c.c_tier with
     | T_unsupported ->
       (match ph.ph_compile inst j with
        | Some f -> T_compiled f
        | None ->
          c.c_probe <- prev;
          probe_declined j)
     | T_interp | T_compiled _ -> T_interp)

(** Remove the probes from defined function [j]. Its probed closure is
    dropped and the hotness counter restarts from zero, so the function
    re-tiers naturally under whatever tier policy is installed. *)
let unprobe_function inst j =
  let c = inst.inst_code.(j) in
  match c.c_probe with
  | None -> ()
  | Some _ ->
    c.c_probe <- None;
    c.c_tier <- T_interp;
    c.c_hot <- 0

(** Register [f] to run once when [inst.steps] first reaches [at].
    Triggers are checked at batch charge boundaries on every tier
    (tier-0 dispatch and tier-1 prologues), so they fire within
    one basic block of the requested step count. *)
let add_step_trigger inst ~at f =
  let rec ins = function
    | [] -> [ (at, f) ]
    | (a, _) as hd :: tl when a <= at -> hd :: ins tl
    | rest -> (at, f) :: rest
  in
  inst.inst_triggers <- ins inst.inst_triggers;
  (* already past the threshold: fire on the spot rather than never *)
  if inst.steps >= at then fire_triggers inst

let clear_step_triggers inst = inst.inst_triggers <- []

(** Register the snapshot-facing view of an attached probe controller.
    [Snapshot.capture] uses [ps_capture] to record a re-arm thunk and
    [Snapshot.restore] uses [ps_detach_all] when restoring a snapshot
    that predates any probes. *)
let set_probes inst ps = inst.inst_probes <- ps

let export inst name =
  match List.assoc_opt name inst.inst_exports with
  | Some ext -> ext
  | None -> link_error "unknown export %S" name

let export_func inst name =
  match export inst name with
  | Extern_func f -> f
  | _ -> link_error "export %S is not a function" name

let export_memory inst name =
  match export inst name with
  | Extern_memory m -> m
  | _ -> link_error "export %S is not a memory" name

let export_global inst name =
  match export inst name with
  | Extern_global g -> g
  | _ -> link_error "export %S is not a global" name

(** Call an exported function by name. *)
let invoke_export inst name args = invoke (export_func inst name) args

(** Wrap an OCaml function as an importable host function. The wrapper
    copies the argument slice into a list before calling [fn], so [fn]
    may re-enter the interpreter freely. *)
let host_func ~name ~params ~results fn =
  let n = List.length params in
  let h_fn args off =
    let rec build i acc = if i < 0 then acc else build (i - 1) (args.(off + i) :: acc) in
    fn (build (n - 1) [])
  in
  Extern_func
    (Host_func { h_type = { params; results }; h_name = name; h_nparams = n; h_fn; h_bind = None })

(** Array-ABI host function: [fn] receives the interpreter's operand-stack
    buffer and the offset of its first argument directly — zero per-call
    allocation. [fn] must read all its arguments before (transitively)
    pushing onto any interpreter stack; see {!type:host_func}. [bind]
    adds site-specialised entries for tier 1 (see {!site_binder}). *)
let host_func_raw ?bind ~name ~params ~results fn =
  Extern_func
    (Host_func
       { h_type = { params; results }; h_name = name; h_nparams = List.length params; h_fn = fn;
         h_bind = bind })
