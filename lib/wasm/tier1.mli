(** Tier-1 execution: closure compilation of pre-decoded function
    bodies, with the tier-0 dispatch loop as reference and deopt path
    for unprobed bodies; engine-probe sites compile into the same
    closures. Superinstruction fusion and save/restore elision happen
    here only, where the bound hook sites are known.

    A compiled body is an {!Interp.compiled_body}: a boxed entry (the
    engine's calling convention) and a typed entry for tier-1 callers of
    the same instance, both leaving results at the frame base and
    raising the same exceptions as [exec_body]. So tier-0 and tier-1
    frames interleave freely, and fuel/step/profile charging matches
    tier 0 boundary for boundary. *)

val default_threshold : int
(** Calls observed on tier 0 before a function is compiled when no
    explicit threshold is given. *)

val compile : Interp.instance -> int -> Interp.compiled_body option
(** [compile inst fid] closure-compiles function [fid] of [inst],
    together with its engine-probe sites when it is probed
    ([c_probe]); [None] when the body uses a shape the compiler does not
    support (an unprobed function then stays on tier 0 permanently).
    Calls whose arguments are constants and [local.get]s pushed just
    before them (or the split halves of an i64 one), to host functions
    with an {!Interp.site_binder}, bind to the callee's site-specialised
    entries. A call to a function of the
    same instance, direct or through the table, enters a compiled callee
    by its typed entry (see {!Interp.call_typed}). The counted sites of a
    trap-free straight-line stretch run as one count group at its end
    (see {!Interp.site_binder}); the rewriter's guard of the counted end
    hooks of a [br_if] compiles into the branch's taken edge. Short
    idioms fuse into
    superinstructions across the code compiled away between them; a
    [local.get] of a value its operand slot still holds compiles to
    nothing, and, in a body with counted sites, so do stores no
    surviving read needs (a dead [local.set] pops). *)

val hook_sites : unit -> int * int
(** [(bound, generic)]: calls to host functions offering site entries
    ({!Interp.site_binder}) that tier 1 has compiled in this process, by
    whether the site bound an entry or kept the array ABI (arguments
    not all pushed by constants, [local.get]s and the split halves of
    an i64 local or constant). The pair of counters
    [wasabi_tier1_hook_sites_total] [{binding="bound"|"generic"}] in
    {!Obs.Metrics.default}. *)

val count_groups : unit -> int * int
(** [(sites, groups)]: the counted hook sites and probe events
    ({!Interp.Site_count}, {!Interp.Probe_count}) that tier 1 has
    compiled in this process, and the count groups they were merged
    into, one per trap-free straight-line stretch holding any. The
    counters [wasabi_tier1_counted_sites_total] and
    [wasabi_tier1_count_groups_total] in {!Obs.Metrics.default}. *)

type peephole = {
  fused : int;  (** superinstructions *)
  elided : int;
      (** [local.get], [local.set] and [local.tee] instructions compiled
          away: loads of a value their operand slot still holds, stores
          no surviving read needs *)
  typed_calls : int;
      (** call sites compiled with a typed branch: direct calls to a
          function of the same instance, and [call_indirect]s, whose
          callee is known only at run time *)
}

val peephole : unit -> peephole
(** What tier 1 has compiled in this process. The counters
    [wasabi_tier1_fused_total], [wasabi_tier1_elided_total] and
    [wasabi_tier1_typed_calls_total] in {!Obs.Metrics.default}. *)

val policy : ?threshold:int -> unit -> Interp.tier_policy
(** A tier-up policy compiling with {!compile} after [threshold]
    tier-0 calls (clamped to ≥ 1; default {!default_threshold}). *)

val enable : ?threshold:int -> Interp.instance -> unit
(** Install a {!policy} on the instance (resets all tier state). *)

val disable : Interp.instance -> unit
(** Remove the tier policy and reset every function to tier 0. *)

val compile_all : Interp.instance -> int
(** Eagerly compile every body (probed ones with their sites), marking
    unsupported unprobed ones so they stay on tier 0; returns the number
    compiled. Installs a threshold-1 policy if none is present. *)

(** {1 Passes (for tests)}

    [compile] runs these passes in order; each returns a typed result
    that only later passes read. They are exposed so that each pass can
    be tested alone on a hand-built body; nothing else should call them.
    A pass raises {!Unsupported} on a body the compiler declines. *)

exception Unsupported

type body
(** What [analyze] finds of a body: operand heights, type stacks, label
    environments, local types and probe events. *)

val analyze : Interp.instance -> int -> body
(** [analyze inst fid] of a defined function of [inst]. *)

type blocks = {
  block_of : int array;  (** the block a pc starts, the body's end included; [-1] inside one *)
  starts : int array;  (** each block's first pc *)
}

val blocks : body -> blocks

type binding = {
  runs : (Interp.ectx Interp.site_entry * int) option array;
      (** at a bound run's first push, its entry and the call's pc; [[||]]
          when nothing binds *)
  nbound : int;
  ngeneric : int;  (** calls to a binding callee that keep the array ABI *)
}

val bind : Interp.instance -> body -> blocks -> binding

type guard = {
  first : int;  (** the guard's [local.get t] *)
  then_pc : int;  (** the [if]'s then-start, whose run the taken edge charges *)
  sites : (unit -> unit) list;  (** the counters of the [if]'s body, in order *)
}
(** A guarded [br_if]: the rewriter's
    [local.get t; if; <bound counted runs>; end; br_if k] where the
    [br_if]'s condition slot holds [t], compiled into the [br_if]'s
    edges. *)

type guards = {
  at : guard option array;  (** at a guarded [br_if]; [[||]] when there is none *)
  nsites : int;  (** the counters of all guards *)
  merged : blocks;
      (** the blocks, with no block starting inside a guard or at its
          [br_if]; the later passes run on these *)
}

val guards : body -> blocks -> binding -> guards

type roles = {
  role : Bytes.t;  (** per pc, one of the [r_*] roles below *)
  counted_runs : int;
  nelided : int;  (** instructions compiled away: elided loads and dead stores *)
}

val r_plain : char
val r_elided : char
val r_dead : char
val r_counted : char
val r_entry : char
val r_guard : char
(** The roles: compiled as written; a load of the value its operand slot
    holds; a store no surviving read needs; in a bound run whose entry
    counts; in a bound run with a site entry; in a guard. *)

val elide : body -> blocks -> binding -> guards -> roles

val dead_stores : body -> blocks -> roles -> roles
(** A copy of the roles with the dead stores marked; the roles
    themselves in a probed body or one without counted runs. *)

type fused
(** A superinstruction. *)

val fused_len : fused -> int
(** The instructions it covers. *)

type counted
(** A counted site joining a count group. *)

type form = {
  fused : fused;
  first : int;
  last : int;
  skipped : int;  (** instructions compiled away between [first] and [last] *)
  absorbed : counted list;  (** counted sites met before [last], newest first *)
}

val plan : body -> blocks -> binding -> roles -> form list
(** The superinstructions emission will compile, in pc order. *)

val frames : Interp.instance -> body -> (Interp.ectx -> unit) -> Interp.compiled_body
(** The two entries of a compiled body, each building the frame and
    running the given block code on it. *)
