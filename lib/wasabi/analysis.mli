(** The high-level analysis API (paper, Table 2): the 23 hooks an
    analysis may implement. Conditions arrive as [bool], branch hooks get
    statically resolved absolute targets, [call_pre] gets resolved
    indirect callees, and i64 values arrive re-joined as [Value.I64]. *)

open Wasm

type memarg = {
  addr : int32;
  offset : int;
}

(** The static facts of one hook site, known when it binds; see
    {!section-site}. *)
type site = {
  spec : Hook.spec;
  loc : Location.t;
  callee : int option;
      (** [Some f] only at a direct [call_pre]: the callee, in the original
          index space, as [call_pre] receives it. [None] at every other
          site, an indirect [call_pre] included. *)
}

type t = {
  nop : Location.t -> unit;
  unreachable : Location.t -> unit;
  if_ : Location.t -> bool -> unit;
  br : Location.t -> Metadata.target -> unit;
  br_if : Location.t -> Metadata.target -> bool -> unit;
  br_table : Location.t -> Metadata.target array -> Metadata.target -> int -> unit;
      (** table, default, runtime index *)
  begin_ : Location.t -> Hook.block_kind -> unit;
  end_ : Location.t -> Hook.block_kind -> Location.t -> unit;
      (** location of the end, kind, location of the matching begin *)
  const : Location.t -> Value.t -> unit;
  drop : Location.t -> Value.t -> unit;
  select : Location.t -> bool -> Value.t -> Value.t -> unit;
      (** condition, first, second *)
  unary : Location.t -> string -> Value.t -> Value.t -> unit;
      (** op, input, result *)
  binary : Location.t -> string -> Value.t -> Value.t -> Value.t -> unit;
      (** op, first, second, result *)
  local : Location.t -> string -> int -> Value.t -> unit;
      (** op, index, value *)
  global : Location.t -> string -> int -> Value.t -> unit;
  load : Location.t -> string -> memarg -> Value.t -> unit;
      (** op, memarg, loaded value *)
  store : Location.t -> string -> memarg -> Value.t -> unit;
  memory_size : Location.t -> int -> unit;  (** current size in pages *)
  memory_grow : Location.t -> int -> int -> unit;  (** delta, previous size *)
  call_pre : Location.t -> int -> Value.t list -> int option -> unit;
      (** callee function index (original index space), arguments, and
          [Some table_index] iff the call is indirect *)
  call_post : Location.t -> Value.t list -> unit;
  return_ : Location.t -> Value.t list -> unit;
  start : Location.t -> unit;
  site : site -> (unit -> unit) option;
      (** The counter of one hook site, resolved once from its static
          facts when the site binds; see {!section-site}. *)
}

(** {1:site Site-bound counters}

    [site s] is asked once per hook site, with the site's static facts
    {!type-site}: when tier 1 binds an AOT hook call whose location is a
    constant, and when the probe backend builds a probed body's site
    table. Both happen at compile time, so it is also asked for sites in
    code that never runs; state it creates there (a zero counter cell, a
    flag) must not show in any report. It is never asked for
    [S_br_table], whose events include the [end] events of the entry
    taken, at other locations. A fact is a value every event of the site
    would carry: the [callee] of a direct [call_pre] is its static
    immediate, the same on both backends.

    [Some f] says that at this site the analysis only needs to know that
    the event fired: [f ()] then runs in place of the callback, once per
    event, and no argument is decoded. It must do exactly what the
    callback of [s.spec] would do for every event of that spec at
    [s.loc], whatever its dynamic arguments; a spec whose callback is a
    no-op may return [Some ignore]. [None] keeps the per-event callback.

    [f] may do its work only the first time it fires ({!once}), when
    that work is idempotent and nothing undoes it: a second run would
    find it done. The flag is set when [f] fires, never at bind, which
    also happens in code that never runs. The call graph adds a direct
    call's edge this way, and instruction coverage marks a location; an
    analysis that counts, or whose state some other event may undo, must
    not.

    [f ()] need not run where its event happens. On tier 1 a counter may
    run at the end of its trap-free straight-line stretch, together with
    the counters of the other sites there: after instructions that touch
    only the frame's locals and operand slots, but before any
    instruction that can trap, call out or write memory, a global or the
    table, and before any callback. The counters of a stretch run in
    site order, and each sees the same memory and globals it would see
    at its own site. So a counter must not read the frame, trap or
    re-enter the engine. The callbacks
    stay the contract: tier 0, unbound (array-ABI) sites, profiled runs
    and {!reify} all use them. A site is not asked while a profiler is
    attached, so the profile keeps its decode/analysis split; attaching
    or detaching one rebinds the sites.

    A record built as [{ a with ... }] over an analysis [a] that sets
    [site] inherits [a]'s counters, which then bypass the replaced
    callbacks: reset [site] (to [default.site]) whenever a callback a
    counter stands for is replaced. *)


val default : t
(** The empty analysis: every hook is a no-op. Build analyses with
    [{ default with binary = ...; ... }]. *)

val once : (unit -> unit) -> unit -> unit
(** [once f] is a counter that runs [f] the first time it fires and
    nothing after, for a site whose work is idempotent
    ({!section-site}). *)

val combine : t -> t -> t
(** Sequential composition: both analyses observe every event, the first
    one first. A site is bound only when both analyses bind it, and its
    counter then runs both counters in order. *)

(** {1 Reified hook events}

    One constructor per callback, carrying exactly its arguments. Events
    are pure values (indirect callees and i64 re-joins happen before
    reification), so they can cross domain boundaries — this is what the
    serve layer's async dispatch ships through its ring buffers. *)

type event =
  | E_nop of Location.t
  | E_unreachable of Location.t
  | E_if of Location.t * bool
  | E_br of Location.t * Metadata.target
  | E_br_if of Location.t * Metadata.target * bool
  | E_br_table of Location.t * Metadata.target array * Metadata.target * int
  | E_begin of Location.t * Hook.block_kind
  | E_end of Location.t * Hook.block_kind * Location.t
  | E_const of Location.t * Value.t
  | E_drop of Location.t * Value.t
  | E_select of Location.t * bool * Value.t * Value.t
  | E_unary of Location.t * string * Value.t * Value.t
  | E_binary of Location.t * string * Value.t * Value.t * Value.t
  | E_local of Location.t * string * int * Value.t
  | E_global of Location.t * string * int * Value.t
  | E_load of Location.t * string * memarg * Value.t
  | E_store of Location.t * string * memarg * Value.t
  | E_memory_size of Location.t * int
  | E_memory_grow of Location.t * int * int
  | E_call_pre of Location.t * int * Value.t list * int option
  | E_call_post of Location.t * Value.t list
  | E_return of Location.t * Value.t list
  | E_start of Location.t

val reify : (event -> unit) -> t
(** An analysis whose every callback packages its arguments as an
    {!event} and hands it to the given function — the producer side of
    async dispatch. It binds no site. *)

val apply : t -> event -> unit
(** Replay a reified event into an analysis (the consumer side);
    [apply a] of the event reified from a hook invocation is exactly the
    direct callback invocation. *)
