(** End-to-end benchmark of the Wasabi reproduction.

      e2e.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1]
              [--out FILE] [--spans FILE]
      e2e.exe compare A.json B.json

    One run measures one workload (see {!Bench_e2e.Suite.workloads}) for
    [S] seconds of closed-loop samples after two warm-up samples, checks
    every output, prints one table line per metric and, as its last
    line, a JSON summary. [--trace 0] (the default) reports the
    end-to-end metrics; [--trace 1] reports the per-layer split from
    spans recorded around the benchmark's calls into each layer,
    alternating traced and untraced samples to measure the tracing
    overhead. [--out] writes the full result (median, quartiles and
    sample count per metric); [--spans] writes the spans as Chrome
    trace-event JSON. [all] runs every workload in its own child
    process, so that each heap peak belongs to one workload, and merges
    their [--out] documents. [compare] judges a second result set
    against a first with the bounds in ./BENCHMARK.json. *)

open Bench_e2e

let usage =
  "usage: e2e.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1]\n\
  \                [--out FILE] [--spans FILE]\n\
  \       e2e.exe compare A.json B.json\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Suite.spec) -> w.name) Suite.workloads)

let die fmt =
  Printf.ksprintf
    (fun msg ->
       prerr_endline ("e2e: " ^ msg);
       prerr_endline usage;
       exit 2)
    fmt

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  out : string option;
  spans_file : string option;
}

let parse_opts args =
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer, got %S" name v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then die "--seconds must be at least 1";
      go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | "--spans" :: v :: rest -> go { o with spans_file = Some v } rest
    | a :: _ -> die "unexpected argument %S" a
  in
  let o =
    go { workload = ""; seed = 1; seconds = 20; trace = false; out = None; spans_file = None } args
  in
  if o.workload = "" then die "--workload is required";
  o

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc (s ^ "\n"))

(* a traced run's samples each take several legs more than an untraced
   one, so it needs fewer to finish *)
let min_samples ~trace = if trace then 1 else 3

let warmup = 2

(** Run one workload in this process. Returns the result and, for a
    traced run, every span recorded. *)
let measure (spec : Suite.spec) ~seed ~seconds ~trace =
  let progs = Array.of_list (List.map Suite.prepare (spec.programs ~seed)) in
  let ctx =
    { Suite.spec; seed; progs; spans = Spans.create (); attempted = 0; failed = 0; complaints = [] }
  in
  (* the first samples grow the heap to its plateau; they are not measured *)
  for index = -warmup to -1 do
    ignore (Suite.sample ctx ~index ~traced:false : Suite.sample)
  done;
  let t0 = Obs.Clock.now_ns () in
  let elapsed () = Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0) in
  let untraced = ref [] and traced = ref [] and spans = ref [] in
  let index = ref 1 in
  let one ~traced:tr =
    let s = Suite.sample ctx ~index:!index ~traced:tr in
    incr index;
    if tr then begin
      let sp = Spans.spans ctx.spans in
      Spans.clear ctx.spans;
      spans := !spans @ sp;
      traced := (s, Report.layer_values spec s sp) :: !traced
    end
    else untraced := s :: !untraced
  in
  let count () = if trace then List.length !traced else List.length !untraced in
  while elapsed () < float_of_int seconds || count () < min_samples ~trace do
    if trace then begin
      (* alternate which of the pair runs first *)
      let first = !index mod 4 < 2 in
      one ~traced:first;
      one ~traced:(not first)
    end
    else one ~traced:false
  done;
  let peak_rss_mb = float_of_int (Stats.max_rss_kb () * 1024) /. 1e6 in
  let samples = if trace then List.map fst !traced else !untraced in
  let values =
    if trace then begin
      let main xs = Stats.median (List.map Suite.main_wall xs) in
      let overhead = 100.0 *. (main (List.map fst !traced) -. main !untraced) /. main !untraced in
      List.map
        (fun (mt : Report.metric) ->
           let xs =
             if mt.name = "trace.overhead_pct" then [ overhead ]
             else List.map (fun (_, l) -> List.assoc mt.name l) !traced
           in
           (mt, Stats.median xs, xs))
        Report.per_layer
    end
    else
      let per_sample = List.map (Report.e2e_values spec) !untraced in
      List.map
        (fun (mt : Report.metric) ->
           let xs =
             if mt.name = "peak_rss_mb" then [ peak_rss_mb ]
             else List.map (List.assoc mt.name) per_sample
           in
           (mt, Report.best mt xs, xs))
        Report.end_to_end
  in
  List.iter (fun c -> prerr_endline ("e2e: check failed: " ^ c)) (List.rev ctx.complaints);
  ( { Report.workload = spec.name; correct = ctx.failed = 0 && ctx.attempted > 0;
      attempted = ctx.attempted; failed = ctx.failed; samples = List.length samples;
      wall_over_cpu = Stats.median (List.map Suite.wall_over_cpu samples); values },
    !spans )

let run_single (spec : Suite.spec) o =
  let r, spans = measure spec ~seed:o.seed ~seconds:o.seconds ~trace:o.trace in
  Report.print_table r;
  Option.iter
    (fun p ->
       write_file p
         (Json.to_string (Report.set_json ~seed:o.seed ~seconds:o.seconds ~trace:o.trace [ r ])))
    o.out;
  Option.iter (fun p -> write_file p (Spans.to_chrome spans)) o.spans_file;
  print_endline (Json.to_string (Report.summary_json r));
  if not r.correct then exit 1

(** Every workload in its own child process, one after another. *)
let run_all o =
  let out = match o.out with Some p -> p | None -> die "--workload all needs --out FILE" in
  let docs =
    List.map
      (fun (w : Suite.spec) ->
         let part = out ^ "." ^ w.name in
         let args =
           [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int o.seed; "--seconds";
             string_of_int o.seconds; "--trace"; (if o.trace then "1" else "0"); "--out"; part ]
           @ (match o.spans_file with Some p -> [ "--spans"; p ^ "." ^ w.name ] | None -> [])
         in
         flush_all ();
         let pid =
           Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
             Unix.stderr
         in
         (match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Printf.eprintf "e2e: workload %s failed\n%!" w.name);
         let doc = try Json.read_file part with Sys_error _ | Json.Parse_error _ -> Json.Null in
         (try Sys.remove part with Sys_error _ -> ());
         Json.member w.name (Json.member "workloads" doc))
      Suite.workloads
  in
  let merged =
    Json.Obj
      [ ("seed", Json.Num (float_of_int o.seed)); ("seconds", Json.Num (float_of_int o.seconds));
        ("trace", Json.Bool o.trace);
        ("workloads",
         Json.Obj (List.map2 (fun (w : Suite.spec) d -> (w.name, d)) Suite.workloads docs)) ]
  in
  write_file out (Json.to_string merged);
  Printf.printf "wrote %s\n" out;
  if List.exists (fun d -> Json.member "correct" d <> Json.Bool true) docs then exit 1

let compare_files a b =
  let read p = try Json.read_file p with Sys_error m | Json.Parse_error m -> die "%s: %s" p m in
  let bounds = Report.bounds_of_benchmark (read "BENCHMARK.json") in
  let rows = Report.compare_sets ~bounds (read a) (read b) in
  if rows = [] then die "no workload appears in both %s and %s" a b;
  List.iter (fun (_, _, _, line) -> print_endline line) rows;
  let count v = List.length (List.filter (fun (_, _, v', _) -> v' = v) rows) in
  Printf.printf "%d rows: %d better, %d worse, %d unchanged, %d unresolved\n" (List.length rows)
    (count Report.Better) (count Report.Worse) (count Report.Unchanged) (count Report.Unresolved);
  if count Report.Worse > 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_files a b
  | args ->
    let o = parse_opts args in
    if o.workload = "all" then run_all o
    else
      match Suite.find o.workload with
      | Some spec -> run_single spec o
      | None -> die "unknown workload %S" o.workload
