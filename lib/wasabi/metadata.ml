(** Static information extracted during instrumentation and consumed by
    the Wasabi runtime. In the original tool this is the generated
    JavaScript ([Wasabi.module.info] plus the stored branch-table
    entries); here it is a plain data structure handed from
    {!Instrument} to {!Runtime}. *)

(** A resolved branch target: the raw relative label (as in the binary)
    and the absolute location of the next instruction executed if the
    branch is taken (paper, Section 2.4.4). *)
type target = {
  label : int;
  target_loc : Location.t;
}

(** A block that a taken branch exits; the runtime calls its [end] hook
    (paper, Section 2.4.5). *)
type ended_block = {
  eb_kind : Hook.block_kind;
  eb_end_loc : Location.t;  (** location of the block's [end] *)
  eb_begin_instr : int;  (** instruction index of the matching begin *)
}

(** Statically extracted information about one [br_table] instruction:
    for every table entry (and the default), the resolved target and the
    list of blocks ended when that entry is taken. Selected at runtime by
    the low-level hook. *)
type br_table_info = {
  bt_loc : Location.t;
  bt_targets : (target * ended_block list) array;
  bt_default : target * ended_block list;
}

(** One hook site discharged statically by abstract-interpretation
    facts ({!Static.Absint}) during [~fold] instrumentation. *)
type fold_site =
  | F_dead of Location.t
      (** the site is statically unreachable: the instruction was kept
          verbatim with no hook calls *)
  | F_args of Location.t * Wasm.Value.t list
      (** the hook's runtime value arguments were proven constant and
          passed as immediates (no duplication through temp locals) *)

type t = {
  original : Wasm.Ast.module_;
  groups : Hook.Group_set.t;  (** groups that were instrumented *)
  split_i64 : bool;  (** whether hook arguments split i64 into two i32 *)
  br_tables : br_table_info Location.Map.t;
  num_hooks : int;
  hook_specs : Hook.spec array;
  num_original_func_imports : int;
  func_names : (int * string) list;  (** export names of functions, by original index *)
  dead_skipped : Location.t list;
      (** statically-unreachable branch/return sites the instrumenter left
          uninstrumented (their stack type is polymorphic, so no hook
          arguments can be materialised) *)
  pruned_funcs : int list;
      (** original indices of functions selective instrumentation skipped
          entirely (statically unreachable from any export/start root) *)
  folded : fold_site list;
      (** hook sites discharged statically by [~fold] instrumentation,
          verified against the recomputed facts by the lint *)
}

type br_table_index = br_table_info option array array

(** Build the O(1) lookup structure from the location-keyed map in two
    passes: size each per-function row by its largest instrumented
    instruction index, then fill. Functions (or instruction prefixes)
    without any [br_table] get empty rows, so lookups degrade to [None]
    rather than allocate. *)
let build_br_table_index t : br_table_index =
  let max_func =
    Location.Map.fold (fun (l : Location.t) _ acc -> max acc l.func) t.br_tables (-1)
  in
  let row_len = Array.make (max_func + 1) 0 in
  Location.Map.iter
    (fun (l : Location.t) _ -> row_len.(l.func) <- max row_len.(l.func) (l.instr + 1))
    t.br_tables;
  let idx = Array.init (max_func + 1) (fun f -> Array.make row_len.(f) None) in
  Location.Map.iter (fun (l : Location.t) info -> idx.(l.func).(l.instr) <- Some info) t.br_tables;
  idx

let br_table_find (idx : br_table_index) ~func ~instr =
  if func >= 0 && func < Array.length idx then begin
    let row = Array.unsafe_get idx func in
    if instr >= 0 && instr < Array.length row then Array.unsafe_get row instr else None
  end
  else None

(** Static information about the original module, in the spirit of the
    [Wasabi.module.info] object available to analyses. *)
let func_type t idx = Wasm.Ast.func_type_at t.original idx
let num_functions t = Wasm.Ast.num_funcs t.original

let func_name t idx =
  match List.assoc_opt idx t.func_names with
  | Some n -> Some n
  | None -> None

let extract_func_names (m : Wasm.Ast.module_) =
  List.filter_map
    (fun (e : Wasm.Ast.export) ->
       match e.edesc with
       | Wasm.Ast.FuncExport i -> Some (i, e.name)
       | _ -> None)
    m.exports
