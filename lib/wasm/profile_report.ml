(** Rendering of interpreter profiles against a live instance: hot
    function tables, the executed opcode mix, and folded stacks for
    flamegraph tools.

    {!Obs.Profile} deliberately knows nothing about Wasm — it counts
    anonymous function ids and body positions. This module joins those
    numbers back to the module: ids become export names (or [func[i]] in
    the function index space), and per-site execution counts become an
    opcode mix via the original [c_body] (so tier 1's superinstructions
    do not distort the mix). *)

open Interp

(** Number of imported functions: function-index-space index of defined
    function [fid] is [fid + n_imported]. *)
let n_imported (inst : instance) =
  Array.length inst.inst_funcs - Array.length inst.inst_code

(** Display name of defined function [fid]: its export name when
    exported, [func[i]] in the function index space otherwise. *)
let func_name (inst : instance) (fid : int) : string =
  let exported =
    List.find_map
      (fun (name, ext) ->
         match ext with
         | Extern_func (Wasm_func (j, owner)) when j = fid && owner == inst -> Some name
         | _ -> None)
      inst.inst_exports
  in
  match exported with
  | Some name -> name
  | None -> Printf.sprintf "func[%d]" (fid + n_imported inst)

(** {1 Hot-function table} *)

let ms ns = Obs.Clock.ns_to_ms ns

let pct part total =
  if Int64.equal total 0L then 0.0
  else 100.0 *. Int64.to_float part /. Int64.to_float total

(** Per-function rows, hottest (by self time) first. *)
let func_table ?(top = 20) (inst : instance) (prof : Obs.Profile.t) : string =
  let rows = Obs.Profile.func_rows prof in
  let total = Obs.Profile.total_self_ns prof in
  let shown = List.filteri (fun i _ -> i < top) rows in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %12s %12s %12s %7s\n" "function" "calls" "self ms"
       "incl ms" "self%");
  List.iter
    (fun (r : Obs.Profile.func_row) ->
       Buffer.add_string b
         (Printf.sprintf "%-24s %12d %12.3f %12.3f %6.1f%%\n"
            (func_name inst r.fr_fid) r.fr_calls (ms r.fr_self_ns) (ms r.fr_incl_ns)
            (pct r.fr_self_ns total)))
    shown;
  let omitted = List.length rows - List.length shown in
  if omitted > 0 then
    Buffer.add_string b (Printf.sprintf "... and %d more functions\n" omitted);
  Buffer.contents b

(** {1 Opcode mix} *)

(* "i32.const 7" and "i32.const 9" are the same opcode: strip immediates
   at the first space of the rendered instruction. *)
let opcode_of_instr (i : Ast.instr) : string =
  let s = Ast.string_of_instr i in
  match String.index_opt s ' ' with
  | Some sp -> String.sub s 0 sp
  | None -> s

(** Executed opcode mix over the original (unfused) instruction
    bodies, from the per-site execution counts; sorted by count
    descending, opcode name tiebreak. *)
let opcode_mix (inst : instance) (prof : Obs.Profile.t) : (string * int) list =
  let tbl = Hashtbl.create 64 in
  Obs.Profile.iter_sites prof (fun fid counts ->
      if fid >= 0 && fid < Array.length inst.inst_code then begin
        let body = inst.inst_code.(fid).c_body in
        Array.iteri
          (fun i c ->
             if c > 0 && i < Array.length body then begin
               let op = opcode_of_instr body.(i) in
               match Hashtbl.find_opt tbl op with
               | Some r -> r := !r + c
               | None -> Hashtbl.add tbl op (ref c)
             end)
          counts
      end);
  Hashtbl.fold (fun op r acc -> (op, !r) :: acc) tbl []
  |> List.sort (fun (o1, c1) (o2, c2) ->
       match compare c2 c1 with 0 -> compare o1 o2 | c -> c)

let render_opcode_mix ?(top = 20) (inst : instance) (prof : Obs.Profile.t) : string =
  let mix = opcode_mix inst prof in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 mix in
  let shown = List.filteri (fun i _ -> i < top) mix in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "%-24s %14s %7s\n" "opcode" "executed" "share");
  List.iter
    (fun (op, c) ->
       Buffer.add_string b
         (Printf.sprintf "%-24s %14d %6.1f%%\n" op c
            (if total = 0 then 0.0 else 100.0 *. Float.of_int c /. Float.of_int total)))
    shown;
  let omitted = List.length mix - List.length shown in
  if omitted > 0 then
    Buffer.add_string b (Printf.sprintf "... and %d more opcodes\n" omitted);
  Buffer.contents b

(** {1 Folded stacks} *)

(** Flamegraph folded-stack lines, function ids resolved to names. *)
let folded (inst : instance) (prof : Obs.Profile.t) : string list =
  Obs.Profile.folded_lines ~name_of:(func_name inst) prof
