(** Basic block profiling (paper, Table 4): counts how often every
    function, block, and loop is entered. Uses only the [begin] hook. *)

type t

val create : unit -> t
val groups : Wasabi.Hook.Group_set.t
val analysis : t -> Wasabi.Analysis.t

val count : t -> Wasabi.Location.t -> Wasabi.Hook.block_kind -> int
val hottest : t -> ((Wasabi.Location.t * Wasabi.Hook.block_kind) * int) list
(** Blocks sorted by execution count, hottest first, ties by location.
    Blocks that never ran are not listed. *)

val report : ?limit:int -> t -> string
