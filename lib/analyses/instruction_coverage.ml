(** Instruction coverage (paper, Table 4, 11 LoC): records which static
    instructions were executed at least once; useful for assessing test
    quality. Uses all hooks. A site marks its location the first time it
    fires, and decodes no argument. *)

open Wasabi

type t = {
  executed : (Location.t, unit) Hashtbl.t;
}

let create () = { executed = Hashtbl.create 256 }

let groups = Hook.all

let mark t loc = Hashtbl.replace t.executed loc ()

let analysis (t : t) : Analysis.t =
  let m1 loc = mark t loc in
  let m2 loc _ = mark t loc in
  let m3 loc _ _ = mark t loc in
  let m4 loc _ _ _ = mark t loc in
  let m5 loc _ _ _ _ = mark t loc in
  {
    Analysis.nop = m1;
    unreachable = m1;
    if_ = m2;
    br = m2;
    br_if = m3;
    br_table = m4;
    begin_ = m2;
    end_ = m3;
    const = m2;
    drop = m2;
    select = m4;
    unary = m4;
    binary = m5;
    local = m4;
    global = m4;
    load = m4;
    store = m4;
    memory_size = m2;
    memory_grow = m3;
    call_pre = m4;
    call_post = m2;
    return_ = m2;
    start = m1;
    site = (fun s -> Some (Analysis.once (fun () -> mark t s.loc)));
  }

let executed_count t = Hashtbl.length t.executed
let is_covered t loc = Hashtbl.mem t.executed loc

(** Fraction of the module's static instructions that executed (block
    delimiters included, matching what hooks can observe). Synthetic
    locations — the implicit function begin ([-1]) and end (body length)
    — are excluded from the numerator. *)
let coverage t (m : Wasm.Ast.module_) =
  let n_imp = Wasm.Ast.num_imported_funcs m in
  let body_lengths = Array.of_list (List.map (fun f -> List.length f.Wasm.Ast.body) m.funcs) in
  let real loc =
    let k = loc.Wasabi.Location.func - n_imp in
    loc.Wasabi.Location.instr >= 0
    && k >= 0
    && k < Array.length body_lengths
    && loc.Wasabi.Location.instr < body_lengths.(k)
  in
  let executed = Hashtbl.fold (fun loc () acc -> if real loc then acc + 1 else acc) t.executed 0 in
  let static = Wasm.Ast.instruction_count m in
  if static = 0 then 1.0 else float_of_int executed /. float_of_int static

let report t m =
  Printf.sprintf "instruction coverage: %d locations executed (%.1f%% of static instructions)\n"
    (executed_count t)
    (100.0 *. coverage t m)
