(** Static information extracted during instrumentation and consumed by
    the Wasabi runtime — the OCaml equivalent of the JavaScript the
    original tool generates ([Wasabi.module.info] plus the stored branch
    table entries). *)

(** A resolved branch target: the raw relative label and the absolute
    location of the next instruction executed if the branch is taken
    (paper, Section 2.4.4). *)
type target = {
  label : int;
  target_loc : Location.t;
}

(** A block that a taken branch exits; the runtime calls its [end] hook
    (paper, Section 2.4.5). *)
type ended_block = {
  eb_kind : Hook.block_kind;
  eb_end_loc : Location.t;
  eb_begin_instr : int;
}

(** Statically extracted information about one [br_table]: per entry (and
    default) the resolved target and the blocks ended when it is taken. *)
type br_table_info = {
  bt_loc : Location.t;
  bt_targets : (target * ended_block list) array;
  bt_default : target * ended_block list;
}

(** One hook site discharged statically during [~fold] instrumentation:
    either proven unreachable (no hooks emitted) or with its runtime
    value arguments proven constant (passed as immediates). *)
type fold_site =
  | F_dead of Location.t
  | F_args of Location.t * Wasm.Value.t list

type t = {
  original : Wasm.Ast.module_;
  groups : Hook.Group_set.t;
  split_i64 : bool;
  br_tables : br_table_info Location.Map.t;
  num_hooks : int;
  hook_specs : Hook.spec array;
  num_original_func_imports : int;
  func_names : (int * string) list;
  dead_skipped : Location.t list;
      (** statically-unreachable branch/return sites left uninstrumented *)
  pruned_funcs : int list;
      (** original indices of functions skipped by selective instrumentation *)
  folded : fold_site list;
      (** hook sites discharged statically by [~fold] instrumentation *)
}

type br_table_index = br_table_info option array array
(** O(1) per-location view of [br_tables]: indexed by original function
    index, then instruction index. Built once per runtime binding so the
    hot [br_table] hook never walks the map. *)

val build_br_table_index : t -> br_table_index

val br_table_find : br_table_index -> func:int -> instr:int -> br_table_info option
(** Bounds-checked lookup; [None] where no [br_table] was instrumented. *)

val func_type : t -> int -> Wasm.Types.func_type
(** Type of an original function, by original index. *)

val num_functions : t -> int
val func_name : t -> int -> string option
(** Export name of an original function, if any. *)

val extract_func_names : Wasm.Ast.module_ -> (int * string) list
