(** The hook-event plan: which low-level hook fires at each instruction
    of a function, when, and with which arguments (paper, Section 2.4 and
    Table 3). It is computed by one walk with
    {!Wasm.Validate.Stack_tracker} and an abstract control stack, and is
    the one definition of the event contract that both backends lower:
    {!Instrument} to wasm hook calls, [Runtime.Probe] to engine-probe
    site closures. The walk resolves branch targets, lists the [end]
    events of every block a branch leaves, extracts [br_table] entries,
    skips sites in statically-unreachable code, and with
    abstract-interpretation facts discharges dead sites and constant
    arguments ([~fold]). *)

(** Where a hook argument comes from. *)
type arg =
  | Imm of Wasm.Value.t  (** a static value: an immediate, a resolved index, a folded constant *)
  | Operand of int  (** the operand at depth [d] before the instruction *)
  | Result  (** the instruction's result: top of stack after it *)
  | Local of int  (** local [x] after the instruction *)

(** When an event fires relative to its instruction. *)
type timing =
  | Before
  | After  (** once the instruction completes and falls through *)
  | Body_head
      (** at the head of the body the instruction opens: every iteration
          of a loop, the then-branch of an [if], the else-branch of an
          [else] *)
  | Taken
      (** before a [br_if], after its [Before] events, only when the
          branch is taken (operand 0 non-zero): the [end] events of the
          blocks it leaves *)

type event = {
  spec : Hook.spec;
  at : int;  (** reported instruction index *)
  timing : timing;
  args : arg list;  (** the arguments after the location, one per logical value *)
}

(** What a walk leaves besides the events. *)
type t = {
  br_tables : Metadata.br_table_info list;
      (** the [br_table]s with an event, whose [end] events the [br_table]
          hook selects at runtime *)
  dead_skipped : Location.t list;
      (** branch/return sites skipped because their stack type is
          polymorphic (statically-unreachable code), in order *)
  folded : Metadata.fold_site list;  (** sites discharged by [~fold], in order *)
}

val func :
  groups:Hook.Group_set.t ->
  facts:Static.Absint.t option ->
  vctx:Wasm.Validate.Module_ctx.t ->
  fidx:int ->
  is_start:bool ->
  Wasm.Ast.func ->
  (int -> event list -> Metadata.br_table_info option -> unit) ->
  t
(** Plan defined function [fidx] (function-space index) for the hook
    [groups]: walk it once, handing each position's events, in firing
    order, to the callback as they are planned — first position [-1]
    (frame entry: [start] when [is_start], then the function's [begin]),
    then every instruction, then the body length (the implicit
    fall-off-the-end exit). A [br_table] with an event comes with its
    entries, which its hook selects from at runtime. With [facts], sites proven unreachable get no
    events and arguments proven constant become {!Imm}. The module must be
    valid. *)

val static_fold_args :
  Static.Absint.t -> func:int -> at:int -> Wasm.Ast.instr -> Wasm.Value.t list option
(** Hook value arguments provable constant at [func:at] from
    abstract-interpretation facts, in hook-argument order; [None] when
    they are not all singletons (or the instruction's hook takes no
    foldable value arguments). Exposed so {!Lint} can recompute and check
    every [Metadata.F_args] claim against the original module. *)
