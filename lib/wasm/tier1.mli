(** Tier-1 execution: closure compilation of pre-decoded function
    bodies, with the tier-0 dispatch loop as reference and deopt path
    for unprobed bodies; engine-probe sites compile into the same
    closures. Superinstruction fusion and save/restore elision happen
    here only, where the bound hook sites are known.

    A compiled body implements {!Interp.compiled_body} — the exact
    [exec_body] calling convention (locals in, results at the frame
    base, same exceptions) — so tier-0 and tier-1 frames interleave
    freely, and fuel/step/profile charging matches tier 0 boundary for
    boundary. *)

val default_threshold : int
(** Calls observed on tier 0 before a function is compiled when no
    explicit threshold is given (and for [WASABI_TIER=on]). *)

val compile : Interp.instance -> int -> Interp.compiled_body option
(** [compile inst fid] closure-compiles function [fid] of [inst],
    together with its engine-probe sites when it is probed
    ([c_probe]); [None] when the body uses a shape the compiler does not
    support (an unprobed function then stays on tier 0 permanently).
    Calls whose arguments are constants and [local.get]s pushed just
    before them, to host functions with an {!Interp.site_binder}, bind to
    the callee's site-specialised entries. The counted sites of a
    trap-free straight-line stretch run as one count group at its end
    (see {!Interp.site_binder}). Short idioms fuse into
    superinstructions across the code compiled away between them; a
    [local.get] of a value its operand slot still holds compiles to
    nothing, and, in a body with counted sites, so do stores no
    surviving read needs (a dead [local.set] pops). *)

val hook_sites : unit -> int * int
(** [(bound, generic)]: calls to host functions offering site entries
    ({!Interp.site_binder}) that tier 1 has compiled in this process, by
    whether the site bound an entry or kept the array ABI (arguments
    not all pushed by constants and [local.get]s, e.g. split i64
    halves). The pair of counters [wasabi_tier1_hook_sites_total]
    [{binding="bound"|"generic"}] in {!Obs.Metrics.default}. *)

val count_groups : unit -> int * int
(** [(sites, groups)]: the counted hook sites and probe events
    ({!Interp.Site_count}, {!Interp.Probe_count}) that tier 1 has
    compiled in this process, and the count groups they were merged
    into, one per trap-free straight-line stretch holding any. The
    counters [wasabi_tier1_counted_sites_total] and
    [wasabi_tier1_count_groups_total] in {!Obs.Metrics.default}. *)

val peephole : unit -> int * int
(** [(fused, elided)]: the superinstructions tier 1 has compiled in this
    process, and the [local.get], [local.set] and [local.tee]
    instructions it compiled away (loads of a value their operand slot
    still holds, stores no surviving read needs). The counters
    [wasabi_tier1_fused_total] and [wasabi_tier1_elided_total] in
    {!Obs.Metrics.default}. *)

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

val env_threshold : unit -> int option
(** The tier-up threshold requested by the [WASABI_TIER] environment
    variable: [None] when unset / ["0"] / ["off"] / ["none"] (or
    unparseable), {!default_threshold} for ["on"] / ["default"], the
    integer itself for a positive number. *)

val enable_from_env : Interp.instance -> unit
(** {!enable} with {!env_threshold}'s value, a no-op when the
    environment does not request tiering. *)
