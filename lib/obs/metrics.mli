(** A process-wide registry of named counters, gauges and log-bucketed
    histograms, with Prometheus text and JSON exposition.

    A metric is identified by (name, label set); registering the same pair
    twice returns the existing metric. Exposition order is deterministic
    (first-registration order, grouped into families by name), so tests can
    compare serialized output against golden files byte for byte.

    All operations are domain-safe: counters and gauges are atomics
    (a counter may also pull counts kept elsewhere, see {!pull}),
    histogram observations take a per-histogram mutex, and registration
    is guarded by the registry lock — so concurrent serve workers and
    fuzz jobs can share one registry without losing updates. *)

type labels = (string * string) list

type registry

val create : unit -> registry
val default : registry
(** The process-wide registry used when [?registry] is omitted. *)

(** {1 Metric kinds} *)

type counter
type gauge

type histogram = {
  h_bounds : float array;  (** inclusive upper bounds, without +Inf *)
  h_buckets : int array;  (** per-bucket counts; last bucket is +Inf *)
  mutable h_sum : float;
  mutable h_count : int;
  h_lock : Mutex.t;  (** guards buckets/sum/count against concurrent observers *)
}

val default_time_bounds : float array
(** Log-spaced seconds buckets: 1 µs doubling up to ~67 s. *)

val counter : ?registry:registry -> ?help:string -> ?labels:labels -> string -> counter
val gauge : ?registry:registry -> ?help:string -> ?labels:labels -> string -> gauge

val histogram :
  ?registry:registry -> ?help:string -> ?labels:labels -> ?bounds:float array ->
  string -> histogram
(** @raise Invalid_argument when the (name, labels) pair is already
    registered with a different metric type (same for the other two). *)

val inc : ?by:float -> counter -> unit

val counter_value : counter -> float
(** The atomic total plus the current value of every pull source. *)

val pull : counter -> (unit -> float) -> unit -> unit
(** [pull c f] makes every read of [c] (value and exposition) add
    [f ()], so a count kept elsewhere (plain fields a hot path bumps
    without any atomic) reads exactly, without an [inc] per event.
    [f] must not keep its owner alive. The returned thunk releases the
    source: [f ()] is folded into the total for good and [f] is no
    longer called (idempotent; [f]'s value must not change after it). *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation: counts it into the first bucket whose upper
    bound is >= the value (the last, +Inf, bucket otherwise). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Exposition} *)

val to_prometheus : registry -> string
(** Prometheus text exposition format, with label values escaped
    (backslash, double quote, newline) and histogram buckets emitted
    cumulatively with [le] labels, as the format requires. *)

val to_json : registry -> string
(** A [{"metrics": [...]}] JSON document, one object per metric in
    registration order; histogram buckets are non-cumulative. *)

(** {1 Escaping helpers}

    Shared by the other hand-rolled emitters in this library. *)

val json_escape : string -> string
val prom_escape : string -> string
val fmt_num : float -> string
