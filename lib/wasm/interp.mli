(** A complete interpreter for WebAssembly modules (MVP): instantiation
    with import resolution, a stack-machine execution engine over the flat
    instruction representation, host functions, and a fuel mechanism.

    The execution engine runs over a preallocated, growable, array-backed
    operand stack (one per instance, shared by all frames); per-function
    side tables (jump targets, [br_table] target arrays, straight-line run
    lengths for batched fuel accounting) are precomputed at instantiation.

    Traps raise [Value.Trap]. *)

exception Exhaustion of string
(** Raised when the configured fuel (instruction budget) runs out. *)

exception Link_error of string
(** Raised during instantiation: missing or mismatching imports, failing
    segment bounds, ... *)

type stack = {
  mutable data : Value.t array;
  mutable size : int;
}
(** The operand stack: top of stack at [data.(size - 1)]. *)

(** One tier-1 activation, threaded through every compiled closure.
    [base] is the frame's operand base (results land there); [charged]
    mirrors tier 0's charge mark. [id]/[fd] hold the i32/f64 operand
    slots and [il]/[fl] the i32/f64 locals, indexed by static slot and
    local index (i32 as sign-extended native ints); i64 and f32 slots
    stay boxed at [st.data.(base + slot)], i64/f32 locals in [locals]. *)
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

(** Pre-decoded instructions: what the dispatch loop executes. Decoding
    (once per function, at instantiation) resolves operator tags into
    dedicated opcodes, jump targets into absolute instruction indices,
    [br_table] targets into [int array]s, and memory accesses into
    width-specific opcodes. One [xinstr] per original instruction, same
    indexing; tier 0 runs them one per dispatch, and superinstruction
    fusion is left to tier 1 ({!Tier1.compile}). *)
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
  | XI32Load of int  (** width-specific memory access; the int is the static offset *)
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
  | XTestGen of Ast.testop
  | XCompareGen of Ast.relop
  | XUnaryGen of Ast.unop
  | XBinaryGen of Ast.binop
  | XConvertGen of Ast.cvtop

(** The snapshot-facing view of an attached probe controller (see
    {!set_probes}): [ps_capture ()] returns a thunk that re-arms the
    currently attached probe set when run, [ps_detach_all ()] detaches
    everything. *)
type probe_set = {
  ps_capture : unit -> unit -> unit;
  ps_detach_all : unit -> unit;
}

type func_inst =
  | Wasm_func of int * instance  (** index into [inst_code], owning instance *)
  | Host_func of host_func

and host_func = {
  h_type : Types.func_type;
  h_name : string;
  h_nparams : int;
      (** [List.length h_type.params], precomputed for the call path *)
  h_fn : Value.t array -> int -> Value.t list;
      (** [h_fn args off] reads its [h_nparams] arguments from
          [args.(off) .. args.(off + h_nparams - 1)]. On the wasm call
          path the array is the live operand-stack buffer (zero copies),
          so the function must read every argument before it
          (transitively) pushes onto any interpreter stack. Build
          host functions with {!host_func} (copying, re-entrant list
          ABI) or {!host_func_raw} (zero-copy array ABI). *)
  h_bind : site_binder option;
      (** site-specialised entries for tier 1 (see {!site_binder});
          [None] when the function has the array ABI only *)
}

(** One argument of a bound host call site (see {!site_binder}): the
    constant it pushes, or a reader of the local it pushes, taking the
    caller's tier-1 frame ['e]. Arguments match the callee's parameter
    types, in order. The two i32 halves of an i64 local or constant that
    the rewriter splits (Table 3 row 6) are two arguments, low half
    first: [Site_const]s, or [Site_i32] readers of the i64 local. *)
and 'e site_arg =
  | Site_const of Value.t
  | Site_i32 of ('e -> int)  (** an i32 local, as its sign-extended native int *)
  | Site_f64 of ('e -> float)  (** an f64 local, unboxed *)
  | Site_boxed of ('e -> Value.t)  (** an i64 or f32 local *)

(** The site-binding hook of a result-less host function. When tier 1
    compiles a call to it whose arguments are all pushed by constants
    and [local.get]s in straight-line code just before the call, or are
    i32 halves pushed by the row-6 run over one i64 local or constant
    ([x; i32.wrap_i64; x; i64.const 32; i64.shr_s; i32.wrap_i64]), it asks
    [bind] for an entry specialised to those arguments ([Site_entry])
    and emits one closure for the whole push-and-call run: the pushes never
    materialise and nothing is boxed. The entry must behave exactly like
    [h_fn] on the same argument values. Tier 1 calls it after counting
    the call against the governor and with the stack size at the height
    below the arguments, as {!call_host} leaves it for [h_fn], so the
    entry may re-enter the interpreter. [None] declines the site, which
    then keeps the array ABI; so do tier 0 and every other call shape.

    A site whose work is only to count binds [Site_count f]: [f ()] reads
    no argument and must not trap, re-enter the engine or write memory,
    globals or the table. Tier 1 then runs it at the end of its
    trap-free stretch, merged with the counted sites before it in the
    same basic block: at the first instruction that can trap, call out
    or write memory, a global or the table, at the first site that is
    not a counter, or at the block's end, whichever comes first. The
    instructions it is moved across touch only the frame's locals and
    operand slots, which a trap or a governor kill discards, so no
    observer can tell. The counted sites of one stretch run in site
    order, each after its own governor count. *)
and site_binder = { bind : 'e. 'e site_arg array -> 'e site_entry option }

(** What a bound site runs (see {!site_binder}). *)
and 'e site_entry =
  | Site_entry of ('e -> unit)  (** the function's work over the site's arguments *)
  | Site_count of (unit -> unit)  (** a counter, merged with the counted sites around it *)

and table_inst = {
  mutable t_elems : func_inst option array;
  t_max : int option;
}

and global_inst = {
  g_type : Types.global_type;
  mutable g_value : Value.t;
}

and extern =
  | Extern_func of func_inst
  | Extern_table of table_inst
  | Extern_memory of Memory.t
  | Extern_global of global_inst

(** Pre-computed jump targets of one function body. *)
and jump_info = {
  end_of : int array;  (** for Block/Loop/If at pc, index of the matching End *)
  else_of : int array;  (** for If at pc, index of the Else, or -1 *)
  max_depth : int;  (** deepest block nesting, bounds the label stack *)
}

(** One function's body plus every side table the dispatch loop needs:
    arities, local defaults, [br_table] targets as [int array], and the
    straight-line run lengths used to batch fuel accounting. *)
and code = {
  c_func : Ast.func;
  c_type : Types.func_type;
  c_body : Ast.instr array;
  c_xbody : xinstr array;
      (** pre-decoded form of [c_body], same indexing; what the dispatch
          loop executes *)
  c_jumps : jump_info;
  c_arity : int;  (** number of results *)
  c_nparams : int;
  c_local_defaults : Value.t array;  (** zero values of the declared locals *)
  c_frame_size : int;  (** params + declared locals *)
  c_br_tables : int array array;
      (** for BrTable at pc: targets with the default appended; [[||]]
          elsewhere *)
  c_run_len : int array;
      (** instructions from pc to the next control transfer, inclusive *)
  mutable c_tier : tier_state;
  mutable c_hot : int;  (** calls observed while still on tier 0 *)
  mutable c_probe : probe_hooks option;
      (** engine probes installed on this body (see {!probe_function}).
          A probed body has no tier-0 form: it is compiled with its
          sites at its first entry after the mark, with or without a
          tier policy. *)
}

(** One engine-probe event. [Probe_fire] is a closure reading the
    frame. [Probe_count (e, f)] is an event whose analysis only counts
    it, gated by the one active [@nth=1] probe entry [e] that matches
    it: it fires as [if e.e_active then (count one hit and one delivery
    in e; f ())], and tier 1 merges it with the counted events around it
    exactly as it merges counted hook sites ({!site_binder}): at the end
    of its trap-free stretch, in event order. *)
and probe_event =
  | Probe_fire of probe_fire
  | Probe_count of Obs.Probe.entry * (unit -> unit)

(** An event closure and what it reads of the frame: it receives the
    frame's locals and peeks its operands off the instance stack, so the
    caller first materialises the top [pe_operands] operands (with
    [size] just above them) and local [pe_local] in boxed form. *)
and probe_fire = {
  pe_fire : Value.t array -> unit;
  pe_operands : int;  (** top-of-stack operands the closure peeks *)
  pe_local : int;  (** the local it reads, or [-1] *)
}

(** The events of one original instruction, in firing order: [site_pre]
    fire before it executes, [site_post] after it completes and falls
    through (never on a taken branch). *)
and probe_site = {
  site_pc : int;
  site_pre : probe_event list;
  site_post : probe_event list;
}

(** The engine-probe instrumentation of one function body, as
    [Wasabi.Runtime.Probe] builds it: a sparse per-site table plus frame
    events. [ph_enter] fires on frame entry, [ph_exit] only on the
    implicit fall-off-the-end exit (explicit [return]s and branches to
    the function label report theirs through their sites). [ph_compile]
    compiles the body together with these sites ({!Tier1.compile}). *)
and probe_hooks = {
  ph_sites : probe_site array;  (** sorted by [site_pc] *)
  ph_enter : probe_event list;
  ph_exit : probe_event list;
  ph_compile : instance -> int -> compiled_body option;
}

(** A compiled (tier-1) function body ({!Tier1}), with one entry per
    argument source. Both build the same frame, over the instance stack
    with its operand base at [base], and on normal return leave exactly
    [c_arity] boxed results at that base (the [exec_body] contract).
    - [cb_enter base]: every parameter boxed at [st.data.(base + j)],
      the stack size at [base]. This is the engine's calling convention
      ({!call_wasm}), used by tier-0 callers, host re-entry, other
      instances and whenever a profiler or deopt-on-fault is on.
    - [cb_call caller abase]: the typed entry for a tier-1 caller of the
      same instance ({!call_typed}). i32/f64 parameters are copied from
      the caller's typed slots [abase + j], i64/f32 ones read from the
      boxed slots where they already are; the frame base is
      [caller.base + abase].

    Neither builds a boxed locals array unless the body has i64/f32
    locals or is probed. *)
and compiled_body = {
  cb_enter : int -> unit;
  cb_call : ectx -> int -> unit;
}

and tier_state =
  | T_interp  (** not (yet) compiled; runs on the tier-0 dispatch loop *)
  | T_compiled of compiled_body
  | T_unsupported
      (** the compiler declined this body, or deopt-on-fault distrusts
          it; stays on tier 0 *)

(** Tier-up policy: once a function has been entered [tp_threshold]
    times, [tp_compile] is asked for a compiled body ([None] marks it
    unsupported and stops the counting). *)
and tier_policy = {
  tp_threshold : int;
  tp_compile : instance -> int -> compiled_body option;
}

and instance = {
  inst_module : Ast.module_;
  inst_types : Types.func_type array;
  mutable inst_funcs : func_inst array;
  mutable inst_code : code array;
  mutable inst_table : table_inst option;
  mutable inst_memory : Memory.t option;
  mutable inst_globals : global_inst array;
  mutable inst_exports : (string * extern) list;
  inst_stack : stack;  (** the operand stack shared by all frames *)
  mutable fuel : int;
  mutable steps : int;  (** total instructions executed *)
  mutable call_depth : int;
  mutable inst_prof : Obs.Profile.t option;
      (** attached profiler; [None] (the default) costs one match per
          call and per straight-line run *)
  mutable inst_tier : tier_policy option;
      (** tier-up policy; [None] (the default) keeps everything on the
          tier-0 dispatch loop *)
  mutable inst_gov : Governor.t option;
      (** attached resource governor; [None] (the default) costs one
          match per batch boundary / grow / host call *)
  mutable inst_deopt_on_fault : bool;
      (** when set, compiled bodies unwound by a governor violation or
          injected host fault deopt (see {!set_deopt_on_fault}) *)
  mutable inst_triggers : (int * (unit -> unit)) list;
      (** pending step triggers, sorted by step count; each fires once
          when [steps] first reaches its threshold, checked at batch
          charge boundaries on every tier *)
  mutable inst_probes : probe_set option;
      (** the attached probe controller's snapshot-facing view, if any *)
}

val max_call_depth : int
(** Calls deeper than this raise [Exhaustion "call stack exhausted"]
    instead of overflowing the OCaml stack. *)

val func_type_of : func_inst -> Types.func_type

val compute_jumps : Ast.instr array -> jump_info
(** Matching [End]/[Else] indices for every structured instruction; also
    used by the instrumenter's control stack. *)

type imports = (string * string * extern) list
(** (module name, item name, provided entity). *)

val default_fuel : int

val instantiate :
  ?fuel:int ->
  ?resolve_import:(int -> Ast.import -> extern option) ->
  imports:imports ->
  Ast.module_ ->
  instance
(** Resolve imports, allocate table/memory/globals, apply element and data
    segments, run the start function. The module must be valid.
    [resolve_import] is consulted first with the import's position and
    declaration — an O(1) dispatch-table path used by the Wasabi runtime
    for its hook imports; [None] falls back to the name-keyed [imports]
    list. Type checks apply to both paths.
    @raise Link_error on unresolvable or mismatching imports. *)

val fork : ?wrap_import:(int -> host_func -> host_func) -> instance -> instance
(** A cheap copy-on-write clone: pre-decoded code and per-function side
    tables are shared (immutable after {!instantiate}), memory / globals
    / table / stack / fuel accounting are copied, and function references
    owned by the source are remapped to the fork. The fork starts
    de-tiered and without profiler / governor / triggers / probes (tier-1
    closures close over their instance and must be recompiled per fork).
    [?wrap_import] substitutes imported host functions by overall
    function index — used to rebind hook imports to a per-fork runtime.
    The start function is not re-run. *)

val set_profiler : instance -> Obs.Profile.t option -> unit
(** Attach (or detach) a profiler; subsequent execution feeds it
    per-function call counts, self/inclusive times and per-site
    execution counts. *)

val set_tier : instance -> tier_policy option -> unit
(** Install (or remove) a tier-up policy. Cached compiled bodies and hot
    counts are discarded, so [set_tier inst None] is a full deopt back to
    the reference interpreter. Use {!Tier1.enable} for the standard
    closure-compiling policy. *)

val set_governor : instance -> Governor.t option -> unit
(** Attach (or detach) a resource governor. The caller is responsible
    for [Governor.arm] before each governed run. *)

val set_deopt_on_fault : instance -> bool -> unit
(** When enabled, a compiled (tier-1) body unwound by a governor
    violation or an injected host fault is deopted and
    [wasabi_deopt_total] is incremented: an unprobed body goes back to
    tier 0 permanently, a probed one is recompiled with its sites at its
    next entry. *)

val is_fault_exn : exn -> bool
(** Environmental unwinds — governor budget violations and injected
    host faults — as opposed to properties of the guest code itself. *)

val probe_function : instance -> int -> probe_hooks -> unit
(** Mark defined function [j] (an [inst_code] index) probed. Nothing is
    compiled: any compiled closure is dropped and the body is compiled
    with its sites at its next entry, on any instance, with or without a
    tier policy; frames already on the stack finish on the code they
    entered with. Tier-up counting is suspended until
    {!unprobe_function}. A body tier 1 has already declined
    ([T_unsupported]) is compiled on the spot instead.
    @raise Error.Hook_error (code ["probe-unsupported"]) when tier 1
    declines the body, here or at that first entry: a probed body has no
    tier-0 form, and its events are never dropped silently. *)

val unprobe_function : instance -> int -> unit
(** Remove the probes from defined function [j]: its probed closure is
    dropped and the hotness counter restarts from zero, so the function
    re-tiers naturally under the installed tier policy. *)

val add_step_trigger : instance -> at:int -> (unit -> unit) -> unit
(** Register a thunk to run once when [steps] first reaches [at],
    checked at batch charge boundaries on both tiers (so it fires
    within one straight-line run of the requested count). If [steps]
    is already past [at] the thunk fires immediately. *)

val clear_step_triggers : instance -> unit

val fire_triggers : instance -> unit
(** Fire every pending trigger whose threshold has been reached, in
    order. Exposed for the tier-1 charge prologue; tier 0 calls it
    internally. *)

val set_probes : instance -> probe_set option -> unit
(** Register (or clear) the snapshot-facing view of an attached probe
    controller; see {!Snapshot}. *)

val call_wasm : instance -> int -> stack -> unit
(** Call function [idx] of the instance with its arguments on top of the
    given stack; afterwards the results are there instead. The
    arguments become the callee's frame base in place (a call from
    another instance's stack moves them over first): a tier-0 callee
    copies them into its boxed locals array, a compiled one takes them
    through [cb_enter]. Exposed for compiled (tier-1) bodies, which
    re-enter the engine through it on every call that cannot take
    {!call_typed}. *)

val call_typed : instance -> compiled_body -> ectx -> int -> unit
(** [call_typed inst cb caller abase]: call compiled body [cb] of
    [inst] from the tier-1 frame [caller] of the same instance, its
    arguments in the caller's slots from [abase] on, through
    [cb.cb_call]. The call depth limit and accounting, and the restore
    of depth and stack size on unwind, are {!call_wasm}'s. The caller
    must have checked that [inst] has no profiler and no deopt-on-fault,
    which only {!call_wasm} applies. *)

val call_host : instance -> host_func -> stack -> unit
(** Invoke a host function with its arguments on top of the stack
    (zero-copy array ABI); results replace them. The instance is the
    caller, consulted for the governor's host-call budget. Exposed for
    compiled bodies. *)

val stack_reserve : stack -> int -> unit
(** Grow the stack's backing array until it holds at least the given
    number of slots (the size is unchanged). Compiled bodies reserve
    their full frame up front and then access slots unchecked. *)

val invoke : func_inst -> Value.t list -> Value.t list
val export : instance -> string -> extern
val export_func : instance -> string -> func_inst
val export_memory : instance -> string -> Memory.t
val export_global : instance -> string -> global_inst
val invoke_export : instance -> string -> Value.t list -> Value.t list

val host_func :
  name:string ->
  params:Types.value_type list ->
  results:Types.value_type list ->
  (Value.t list -> Value.t list) ->
  extern
(** Wrap an OCaml function as an importable host function. The argument
    slice is copied into a list before [fn] runs, so [fn] may re-enter
    the interpreter freely. *)

val host_func_raw :
  ?bind:site_binder ->
  name:string ->
  params:Types.value_type list ->
  results:Types.value_type list ->
  (Value.t array -> int -> Value.t list) ->
  extern
(** Zero-copy array-ABI host function: [fn args off] reads its arguments
    directly out of the interpreter's operand-stack buffer. [fn] must
    read all arguments before (transitively) pushing onto any interpreter
    stack; see {!type:host_func}. [bind] adds site-specialised tier-1
    entries (see {!site_binder}). *)
