(** Hooks: the units of selective instrumentation ({!group}) and the
    monomorphic low-level hook specifications ({!spec}) generated on
    demand during instrumentation (paper, Sections 2.4.2 and 2.4.3). *)

(** Selective-instrumentation groups, in the order of the paper's
    Figures 8 and 9 (plus [G_start]). An analysis declares the groups it
    needs; only matching instructions are instrumented. *)
type group =
  | G_nop
  | G_unreachable
  | G_memory_size
  | G_memory_grow
  | G_select
  | G_drop
  | G_load
  | G_store
  | G_call
  | G_return
  | G_const
  | G_unary
  | G_binary
  | G_global
  | G_local
  | G_begin
  | G_end
  | G_if
  | G_br
  | G_br_if
  | G_br_table
  | G_start

val all_groups : group list
val figure_groups : group list
(** The 21 groups on the x-axis of Figures 8 and 9. *)

val group_name : group -> string
val group_of_name : string -> group
(** @raise Invalid_argument on unknown names. *)

module Group_set : Set.S with type elt = group

val all : Group_set.t
val none : Group_set.t
val of_list : group list -> Group_set.t

(** Block kinds visible to the [begin]/[end] hooks. *)
type block_kind =
  | Bfunction
  | Bblock
  | Bloop
  | Bif
  | Belse

val block_kind_name : block_kind -> string

type local_op = Lget | Lset | Ltee
type global_op = Gget | Gset

val local_op_name : local_op -> string
val global_op_name : global_op -> string

(** One monomorphic low-level hook: two instrumented call sites share a
    hook exactly when their specs are equal. *)
type spec =
  | S_nop
  | S_unreachable
  | S_if_cond
  | S_br
  | S_br_if
  | S_br_table
  | S_begin of block_kind
  | S_end of block_kind
  | S_const of Wasm.Types.value_type
  | S_drop of Wasm.Types.value_type
  | S_select of Wasm.Types.value_type
  | S_unary of string * Wasm.Types.value_type * Wasm.Types.value_type
  | S_binary of string * Wasm.Types.value_type * Wasm.Types.value_type * Wasm.Types.value_type
  | S_local of local_op * Wasm.Types.value_type
  | S_global of global_op * Wasm.Types.value_type
  | S_load of string * Wasm.Types.value_type
  | S_store of string * Wasm.Types.value_type
  | S_memory_size
  | S_memory_grow
  | S_call_pre of Wasm.Types.value_type list * bool  (** arg types; [true] = indirect *)
  | S_call_post of Wasm.Types.value_type list
  | S_return of Wasm.Types.value_type list
  | S_start

val group_of_spec : spec -> group

val flatten_type_with : split:bool -> Wasm.Types.value_type -> Wasm.Types.value_type list
val flatten_type : Wasm.Types.value_type -> Wasm.Types.value_type list
(** i64 becomes two i32 halves (paper, Section 2.4.6). *)

val args : spec -> Wasm.Types.value_type list
(** The types of a hook's arguments after the two location parameters,
    one per logical value (an i64 is one [I64T]). *)

val signature : ?split_i64:bool -> spec -> Wasm.Types.func_type
(** Wasm-level signature of the imported hook: two i32 location parameters
    followed by the spec's arguments ([split_i64] defaults to [true], the
    JavaScript-compatible convention). *)

val param_count : ?split_i64:bool -> spec -> int
(** Flattened Wasm-level parameter count of {!signature}, including the
    two location slots — the arity of a compiled dispatch decoder. *)

val name : spec -> string
(** Import name of the generated hook, e.g. ["i32.add"], ["drop_i64"],
    ["call_pre_i32_f64"], ["begin_loop"]. Distinct specs can share a name
    only if their signatures agree. *)

val import_module : string
(** The import module name of all hooks. *)

(** The on-demand monomorphization map (paper, Section 2.4.3). *)
module Map : sig
  type t

  val create : unit -> t
  val ordinal : t -> spec -> int
  (** Stable ordinal of the spec, generating the hook on first request. *)

  val count : t -> int
  val specs : t -> spec array
  (** All generated specs, in ordinal order. *)

  val note_requests : t -> (spec * int) list -> unit
  (** Record a batch of per-spec request counts (typically one
      instrumented function's worth) under one lock acquisition. *)

  val requests : t -> (spec * int) array
  (** Per-spec request counts, in ordinal order. *)

  val total_requests : t -> int

  val hits : t -> int
  (** Requests that found their hook already generated. *)

  val misses : t -> int
  (** Requests that had to generate a hook (= {!count}). *)
end

val eager_call_hook_count : max_params:int -> float
(** Number of call hooks eager monomorphization would need for calls with
    up to [max_params] parameters (the 4^n explosion of Section 2.4.3). *)
