(** Instruction mix analysis (paper, Table 4): counts how often each kind
    of instruction executes. Uses all hooks. *)

type t

val create : unit -> t
val groups : Wasabi.Hook.Group_set.t
val analysis : t -> Wasabi.Analysis.t

val count : t -> string -> int
(** Executions of one mnemonic, e.g. ["i32.add"]. *)

val merge : into:t -> t -> unit
(** Sum [src]'s counts into [into], per key. Parallel runs
    count into per-domain values and merge at report time; the source
    is left unchanged. *)

val total : t -> int
(** Instructions executed: the sum of the per-mnemonic counts. *)

val sorted : t -> (string * int) list
(** Counts sorted by frequency, most frequent first, ties by key.
    Kinds that never ran are not listed. *)

val report : t -> string
