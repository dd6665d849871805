(** The Wasabi runtime: provides the imported low-level hook functions and
    dispatches them to the high-level analysis API, re-joining split i64
    halves, attaching pre-computed static information (resolved branch
    targets, [br_table] entries) and resolving indirect call targets
    through the instance's table.

    One per-spec decoder serves every way a hook is called. Each
    monomorphized hook spec is compiled once, at runtime-binding time,
    into a specialized decoder closure that reads its arguments straight
    off the interpreter's operand stack (zero per-call list allocation,
    no map lookups). The same decoder definition is also compiled per
    tier-1 call site whose arguments are constants and locals
    ({!Wasm.Interp.site_binder}): that site entry reads the constants
    and the caller's unboxed locals in place, and computes the location,
    branch target records and [br_table] metadata once, when the site
    binds. The engine-probe backend ({!Probe}) compiles it once more per
    event of the shared {!Plan}, over the operands and local the probe
    site reads. The original interpretive list-based decoder is kept as
    the reference path (array ABI only) that the decoder tests check the
    compiled one against, selected with [~decoder:`Reference]. All paths
    produce identical high-level hook invocations.

    A bound tier-1 site at a constant location, and a probe event, ask
    the analysis for the site's counter ({!Analysis.site}) when they are
    built. A counted site runs the counter in place of decoding, except
    while a profiler is attached. *)

type decoder_kind = [ `Compiled | `Reference ]

type binding
(** An analysis as a backend binds it: the callbacks, their
    mark-recording twins that split profiled dispatch time into
    marshalling and analysis code, and the profiler slot. *)

type t = {
  metadata : Metadata.t;
  decoder : decoder_kind;
  br_index : Metadata.br_table_index;
      (** O(1) per-location [br_table] metadata, built once at creation *)
  mutable instance : Wasm.Interp.instance option;
  indirect_cache : int array ref;
      (** per-table-slot resolution of indirect call targets, filled
          lazily (MVP tables are immutable after instantiation) *)
  binding : binding;
}

exception Bad_hook_args of Wasm.Error.t
(** A low-level hook received arguments inconsistent with its spec — an
    internal error of the instrumentation. Rebinding of
    {!Wasm.Error.Hook_error} (phase [Run], code ["bad-hook-args"],
    CLI exit code 9). *)

val create :
  ?decoder:decoder_kind ->
  ?sink:(Analysis.event -> unit) ->
  Instrument.result -> Analysis.t -> t
(** [decoder] defaults to [`Compiled]. When [sink] is given, hooks decode as usual but the decoded
    invocation is reified as an {!Analysis.event} and handed to [sink]
    instead of running the analysis callbacks inline — the async
    dispatch seam used by the serve layer; the [analysis] argument is
    then only the consumer's to apply. *)

val attach_profiler : t -> Obs.Profile.t option -> unit
(** Attach (or detach) a profiler to both the runtime (hook-dispatch
    timing) and the instrumented instance, when one is present. The
    instance is re-tiered ({!Wasm.Interp.set_tier} with its own policy),
    so compiled bodies rebind their hook sites at their next entry:
    timed while a profiler is attached, counted or bare otherwise.
    Frames already on the stack finish on the code they entered with. *)

val imports : t -> Wasm.Interp.imports
(** Host functions implementing every generated low-level hook. *)

val instantiate :
  ?fuel:int ->
  ?decoder:decoder_kind ->
  ?sink:(Analysis.event -> unit) ->
  ?wrap_host:(Wasm.Interp.host_func -> Wasm.Interp.host_func) ->
  ?extra_imports:Wasm.Interp.imports ->
  Instrument.result ->
  Analysis.t ->
  Wasm.Interp.instance * t
(** Instantiate an instrumented module with the analysis attached;
    [extra_imports] supplies the program's own imports. Hook imports are
    resolved positionally through the runtime's dispatch table (the
    instrumenter appends them after the original imports in ordinal
    order); everything else goes through the name-keyed import list.
    [wrap_host] interposes on every bound host function (hooks and
    [Host_func] extra imports) — the fault-injection seam. [sink] as in
    {!create}. *)

val fork :
  ?sink:(Analysis.event -> unit) ->
  t -> Analysis.t -> Wasm.Interp.instance * t
(** Fork an instantiated runtime: a copy-on-write clone of its instance
    ([Wasm.Interp.fork]) paired with a fresh runtime owning its own hook
    host functions, analysis binding and indirect-call cache, sharing the
    immutable per-module work (metadata, [br_table] index, hook specs).
    Hook imports in the forked instance are rebound to the new runtime,
    so its events dispatch to [analysis] (or reify into [sink]). The
    fork starts de-tiered; run [Wasm.Tier1.compile_all] on it for
    tier-1. This is the serve farm's per-worker setup step.
    @raise Invalid_argument if [t] was never instantiated. *)

(** The engine-probe observability backend: run an analysis on an
    {e uninstrumented} module by compiling event closures into the
    engine's tier-1 bodies. No binary rewrite, no i64 splitting, no
    argument marshalling — closures read operands off the live operand
    stack and call the same {!Analysis.t} callbacks the AOT path
    dispatches to. The events are the AOT backend's: the controller
    lowers the same {!Plan} and decodes each event with the same per-spec
    decoder; the probe-parity fuzz oracle checks that the two lowerings
    deliver the same stream. A probed body's sites are built when it is
    compiled, at its first entry, so code that never runs costs none.

    Probes attach and detach while the instance runs: attach takes
    effect at the next entry of each affected function (and deopts its
    tier-1 closure); detach silences events immediately and lets bodies
    re-tier. Specs select sites Whamm-style:
    ["GROUPS\[@func=N\]\[@loc=F:I\]\[@nth=K\]"] — comma-separated hook
    groups (or ["all"]), optional per-function / per-site filters, and
    a fire-every-kth-match count predicate. *)
module Probe : sig
  type controller

  val create :
    ?registry:Obs.Metrics.registry ->
    Wasm.Interp.instance ->
    Analysis.t ->
    controller
  (** Create a probe controller for an instance of the {e original}
      (uninstrumented) module, and register its capture/detach view on
      the instance so {!Wasm.Snapshot} restores the probe set
      explicitly. No probes are attached yet. *)

  val attach : controller -> Obs.Probe.spec -> Obs.Probe.entry
  (** Attach a probe and mark the bodies with an event it matches, to be
      compiled with their sites at their next entry. Counted by
      [wasabi_probe_attached_total]; spans a [probe.attach] phase. *)

  val attach_spec : controller -> string -> (Obs.Probe.entry, string) result
  (** [attach] from concrete spec syntax, validating hook-group names. *)

  val validate_spec : string -> (Obs.Probe.spec, string) result

  val detach : controller -> Obs.Probe.entry -> unit
  (** Stop the probe firing immediately and re-derive probed bodies;
      functions left without matching probes return to tiered
      execution. Idempotent. *)

  val detach_all : controller -> unit

  val attach_at : controller -> step:int -> Obs.Probe.spec -> unit
  (** Attach once the instance's step counter first reaches [step]
      (checked at batch-charge boundaries on every tier, immediate when
      already past) — the [--probe-at step=N] trigger. *)

  val detach_at : controller -> step:int -> Obs.Probe.entry -> unit

  val attach_profiler : controller -> Obs.Profile.t option -> unit
  (** Attach (or detach) a profiler to probe dispatch and the instance.
      Probe dispatch time splits into ["hook.<group>"],
      ["dispatch.probe"] (argument decoding before the analysis
      callback) and ["dispatch.analysis"]. Probed bodies are rebuilt:
      their sites are timed only while a profiler is attached. *)

  val entries : controller -> Obs.Probe.entry list
  (** Currently attached (active) probes. *)

  val all_entries : controller -> Obs.Probe.entry list
  (** Every probe ever attached, including detached ones (for
      [--stats]). *)

  val manager : controller -> Obs.Probe.t
end
