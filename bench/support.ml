(** Shared machinery for the benchmark harness: wall-clock timing,
    module replication (to obtain multi-megabyte binaries for the
    instrumentation-throughput experiment), and result formatting. *)

open Wasm

(** Seconds on the monotonic clock: differences only, never a date. *)
let now () = Obs.Clock.ns_to_s (Obs.Clock.now_ns ())

(** Fast mode ([WASABI_BENCH_FAST] set): fewer, shorter reps and smaller
    sweeps, trading accuracy for speed. *)
let fast = Sys.getenv_opt "WASABI_BENCH_FAST" <> None

(** Wall-clock seconds of [f ()], best of [reps]. *)
let time_best ?(reps = 3) f =
  let rec go best k =
    if k = 0 then best
    else begin
      let t0 = now () in
      ignore (f ());
      let d = now () -. t0 in
      go (Float.min best d) (k - 1)
    end
  in
  go infinity reps

(** Mean and standard deviation of [reps] timed runs of [f]. *)
let time_stats ~reps f =
  let samples =
    List.init reps (fun _ ->
      let t0 = now () in
      ignore (f ());
      now () -. t0)
  in
  let n = float_of_int reps in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples /. n in
  (mean, sqrt var)

(** Replicate the defined functions of [m] [copies] extra times, fixing
    intra-copy call targets, to scale a realistic module to megabyte
    sizes. Exports, table and start keep pointing at the original copy. *)
let replicate_module (m : Ast.module_) ~copies : Ast.module_ =
  let n_imp = Ast.num_imported_funcs m in
  let n_def = List.length m.Ast.funcs in
  let shift_call k instr =
    match instr with
    | Ast.Call f when f >= n_imp -> Ast.Call (f + (k * n_def))
    | i -> i
  in
  let copy k =
    List.map
      (fun (f : Ast.func) -> { f with Ast.body = List.map (shift_call k) f.Ast.body })
      m.Ast.funcs
  in
  let extra = List.concat (List.init copies (fun k -> copy (k + 1))) in
  { m with Ast.funcs = m.Ast.funcs @ extra }

(** Count non-empty, non-comment lines of OCaml source, as the paper
    counts analysis LoC (Table 4). Block comments [(* ... *)] may span
    lines and nest; a line counts when any non-whitespace appears outside
    a comment. String literals are not special-cased — a ["(*"] inside a
    string would be miscounted, which the analysis sources avoid. *)
let ml_loc_of_string src =
  let n = String.length src in
  let count = ref 0 and depth = ref 0 in
  let line_has_code = ref false in
  let i = ref 0 in
  let flush_line () =
    if !line_has_code then incr count;
    line_has_code := false
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      flush_line ();
      incr i
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 then
      if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr depth;
        i := !i + 2
      end
      else incr i
    else begin
      if c <> ' ' && c <> '\t' && c <> '\r' then line_has_code := true;
      incr i
    end
  done;
  flush_line ();
  !count

(** [ml_loc_of_string] over a file; 0 when the file is not readable (the
    benchmark may run outside the repo root). *)
let ml_loc_of_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | src -> ml_loc_of_string src
  | exception Sys_error _ -> 0

let kb bytes = float_of_int bytes /. 1024.0
let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let pct x = 100.0 *. x

(** Geometric mean. *)
let geomean = function
  | [] -> nan
  | xs ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(** Run an instrumented module with the empty analysis; returns wall time. *)
let run_instrumented (res : Wasabi.Instrument.result) =
  let inst, _rt = Wasabi.Runtime.instantiate res Wasabi.Analysis.default in
  let t0 = now () in
  ignore (Interp.invoke_export inst "run" []);
  now () -. t0

let run_uninstrumented (m : Ast.module_) =
  let inst = Interp.instantiate ~imports:[] m in
  let t0 = now () in
  ignore (Interp.invoke_export inst "run" []);
  now () -. t0

(** Wall time of invoking the exported [run] [iters] times on an existing
    instance (the corpus entries are idempotent). *)
let invoke_run_n inst iters =
  let t0 = now () in
  for _ = 1 to iters do
    ignore (Interp.invoke_export inst "run" [])
  done;
  now () -. t0

(** Number of iterations needed for the uninstrumented program to run for
    about [target] seconds, so relative-runtime measurements rise above
    timer noise. *)
let calibrated_iters (m : Ast.module_) ~target =
  let inst = Interp.instantiate ~imports:[] m in
  let once = invoke_run_n inst 1 in
  max 1 (int_of_float (target /. Float.max 1e-6 once))

(** Interpreter throughput of invoking the exported [run] [iters] times:
    (instructions executed, wall seconds, instructions/second). Relies on
    [Interp.steps] counting retired instructions. *)
let interp_rate inst ~iters =
  let s0 = inst.Interp.steps in
  let t = invoke_run_n inst iters in
  let steps = inst.Interp.steps - s0 in
  (steps, t, float_of_int steps /. Float.max 1e-9 t)

(** The middle element, or the mean of the two middle elements of an
    even-length list. *)
let median xs =
  let sorted = Array.of_list (List.sort Float.compare xs) in
  match Array.length sorted with
  | 0 -> nan
  | n when n mod 2 = 1 -> sorted.(n / 2)
  | n -> (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(** Relative runtime of [instrumented] vs [baseline]: measurements are
    interleaved (base, instr, base, instr, ...) and the median of the
    per-pair ratios is reported, cancelling slow machine drift. *)
let paired_overhead ~reps ~iters base_inst instr_inst =
  let ratios =
    List.init reps (fun _ ->
      let tb = invoke_run_n base_inst iters in
      let ti = invoke_run_n instr_inst iters in
      ti /. Float.max 1e-9 tb)
  in
  median ratios
