(** Engine-agnostic probe bookkeeping for the engine-side instrumentation
    backend: parsed probe specifications (which hook groups, optionally
    narrowed to one function, one code location, or the k-th matching
    occurrence onward), the registry of attached probe entries, and the
    dynamic fire gate every synthesized event passes through.

    This module deliberately knows nothing about WebAssembly: groups are
    raw strings (validated by the layer that owns the hook vocabulary),
    and sites are (function, instruction) integer pairs. The engine glue
    in [Wasm.Interp] and the plan lowering in [Wasabi.Runtime.Probe]
    build on it.

    Every attach/detach is wrapped in a [probe.attach] / [probe.detach]
    {!Span} phase and counted in the [wasabi_probe_attached_total] /
    [wasabi_probe_detached_total] counters; every delivered event counts
    into [wasabi_probe_fired_total], which is kept off the event path (a
    plain per-entry count the counter pulls whenever it is read) and is
    exact at every read. Counters live in the default {!Metrics}
    registry unless [create ?registry] says otherwise. *)

(** A parsed probe specification. Concrete syntax:

    {v GROUPS[@func=N][@loc=F:I][@nth=K] v}

    where [GROUPS] is [all] or a comma-separated list of hook group
    names, [@func=N] restricts to events in function [N], [@loc=F:I] to
    events reported at function [F] instruction [I], and [@nth=K] fires
    from the K-th matching occurrence onward (1-based; [K = 1] is
    unconditional). *)
type spec = {
  sp_groups : string list;  (** empty means every group *)
  sp_func : int option;
  sp_loc : (int * int) option;
  sp_nth : int;  (** >= 1; 1 = fire on every occurrence *)
}

(** One attached probe. [e_hits] counts matching events that reached the
    gate, [e_fired] those actually delivered (after the [@nth] filter). *)
type entry = {
  e_id : int;
  e_spec : spec;
  mutable e_active : bool;
  mutable e_hits : int;
  mutable e_fired : int;
}

type t

val create : ?registry:Metrics.registry -> unit -> t

val parse_spec : string -> (spec, string) result
(** Parse the concrete syntax above. Group names are {e not} validated
    here — the caller owns the vocabulary ({!spec_groups} exposes them). *)

val spec_to_string : spec -> string
(** Round-trips with {!parse_spec} (groups in the order given). *)

val attach : t -> spec -> entry
(** Register a new active entry, under a [probe.attach] span. *)

val detach : t -> entry -> unit
(** Deactivate the entry: its events stop firing immediately, even from
    sites compiled into still-running frames. Idempotent. *)

val detach_all : t -> unit

val entries : t -> entry list
(** Active entries, in attach order. *)

val all_entries : t -> entry list
(** Every entry ever attached (active and detached), in attach order. *)

val site_matches : spec -> group:string -> func:int -> instr:int -> bool
(** Static part of the predicate: does an event of [group] reported at
    ([func], [instr]) fall under the spec? *)

val gate : entry list -> unit -> bool
(** The dynamic part, compiled for one site from the entries whose
    static predicate matched it: each call counts one occurrence against
    every entry (its [e_hits]) and decides delivery ([e_active] and the
    [@nth] threshold), counting a delivery in [e_fired]. One entry with
    [@nth=1] compiles to a flag test. *)

val attached_total : t -> int
val fired_total : t -> int
val detached_total : t -> int
