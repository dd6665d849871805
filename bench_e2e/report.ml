(** Metric definitions, result documents and the comparison of two
    result sets. *)

type metric = { name : string; unit_ : string; higher_is_better : bool }

let m ?(up = false) name unit_ = { name; unit_; higher_is_better = up }

(** What a user of the system pays; printed by an untraced run. *)
let end_to_end =
  [ m "setup_s" "s"; m "probe_setup_s" "s"; m "aot_run_s" "s"; m "probe_run_s" "s";
    m "base_run_s" "s"; m ~up:true "serve_runs_per_s" "runs/s"; m "instrumented_bytes" "B";
    m "peak_rss_mb" "MB" ]

(** The split across layers; printed by a traced run. *)
let per_layer =
  [ m "decode.s" "s"; m ~up:true "decode.mb_s" "MB/s"; m "validate.s" "s";
    m "instrument.s" "s"; m ~up:true "instrument.mb_s" "MB/s"; m "instrument.alloc_mw" "Mword";
    m "instrument.hooks" "count"; m "instrument.size_ratio" "ratio";
    m "encode.s" "s"; m ~up:true "encode.mb_s" "MB/s"; m "instantiate.s" "s";
    m "tier1.compile_s" "s"; m ~up:true "tier1.compiled" "count"; m "tier1.bodies" "count";
    m "probe.attach_s" "s"; m "probe.detach_s" "s";
    m "execute.s" "s"; m "execute.steps" "count"; m ~up:true "execute.minstr_s" "Minstr/s";
    m "execute.t0_s" "s";
    m "hook.events" "count"; m "hook.events_per_step" "ratio"; m "aot.dispatch_s" "s";
    m "aot.alloc_mw" "Mword"; m "aot.overhead_x" "x"; m "aot.t0_run_s" "s";
    m "probe.dispatch_s" "s"; m "probe.overhead_x" "x"; m "probe.t0_run_s" "s";
    m "analysis.callback_s" "s"; m "gc.s" "s"; m "fork.s" "s"; m "snapshot.capture_s" "s";
    m "snapshot.restore_s" "s"; m "serve.restore_share" "ratio"; m "serve.run_s" "s";
    m ~up:true "serve.scaling_2v1" "x"; m "trace.overhead_pct" "%"; m "trace.unattributed_pct" "%";
    m "noise.wall_over_cpu" "ratio" ]

let mb bytes = float_of_int bytes /. 1e6

(** End-to-end values of one untraced sample. [peak_rss_mb] is a
    property of the whole process and is added by the caller. *)
let e2e_values (k : Suite.spec) (s : Suite.sample) =
  let per reps (l : Stats.lap) = l.wall /. float_of_int reps in
  [ ("setup_s", per k.setup_reps s.setup); ("probe_setup_s", per k.setup_reps s.probe_setup);
    ("aot_run_s", per k.aot_reps s.aot_leg); ("probe_run_s", per k.probe_reps s.probe_leg);
    ("base_run_s", per k.base_reps s.base_leg);
    ("serve_runs_per_s", float_of_int s.served /. s.serve_leg.wall);
    ("instrumented_bytes", float_of_int s.bytes_out) ]

(** Per-layer values of one traced sample, from its spans' self times
    and the sample's counts. *)
let layer_values (k : Suite.spec) (s : Suite.sample) (spans : Spans.span list) =
  let selfs = Spans.self_times spans in
  let self ?legs name =
    List.fold_left
      (fun acc ((sp : Spans.span), t) ->
         if sp.kind = Spans.Call && sp.name = name
            && (match legs with None -> true | Some ls -> List.mem sp.leg ls)
         then acc +. t
         else acc)
      0.0 selfs
  in
  let reps r = float_of_int r in
  (* per set-up of every program, summed over both backends *)
  let setup name = self ~legs:[ "aot_setup"; "probe_setup" ] name /. reps k.setup_reps in
  let n = float_of_int s.programs in
  let decode = setup "decode" in
  let instrument = setup "instrument" and encode = setup "encode" in
  let execute = self "run.base" /. reps k.base_reps in
  let aot = self "run.aot" /. reps k.aot_reps in
  let probe = self "run.probe" /. reps k.probe_reps in
  let aot_default = self "run.aot_default" /. reps k.aot_reps in
  let probe_default = self "run.probe_default" /. reps k.probe_reps in
  let restore = self "snapshot.restore" /. (n *. float_of_int Suite.restores) in
  let serve_run = self ~legs:[ "serve" ] "serve.farm" /. float_of_int s.served in
  let events = float_of_int s.hook_events in
  let sample_dur, unattributed =
    List.fold_left
      (fun (d, u) ((sp : Spans.span), t) ->
         match sp.kind with
         | Spans.Sample -> (d +. Obs.Clock.ns_to_s (Spans.dur_ns sp), u +. t)
         | Spans.Leg -> (d, u +. t)
         | Spans.Call -> (d, u))
      (0.0, 0.0) selfs
  in
  [ ("decode.s", decode);
    ("decode.mb_s", mb (2 * s.bytes_in) /. decode);
    ("validate.s", setup "validate");
    ("instrument.s", instrument);
    ("instrument.mb_s", mb s.bytes_in /. instrument);
    ("instrument.alloc_mw", s.instrument_words /. 1e6);
    ("instrument.hooks", float_of_int s.hooks);
    ("instrument.size_ratio", float_of_int s.bytes_out /. float_of_int s.bytes_in);
    ("encode.s", encode);
    ("encode.mb_s", mb s.bytes_out /. encode);
    ("instantiate.s", setup "instantiate");
    ("tier1.compile_s", setup "tier1.compile");
    ("tier1.compiled", float_of_int s.compiled);
    ("tier1.bodies", float_of_int s.bodies);
    ("probe.attach_s", setup "probe.attach");
    ("probe.detach_s", self ~legs:[ "teardown" ] "probe.detach");
    ("execute.s", execute);
    ("execute.steps", float_of_int s.base_steps);
    ("execute.minstr_s", float_of_int s.base_steps /. execute /. 1e6);
    ("execute.t0_s", self "run.base_t0");
    ("hook.events", events);
    ("hook.events_per_step", events /. float_of_int s.base_steps);
    ("aot.dispatch_s", aot_default -. execute);
    ("aot.alloc_mw", s.aot_words /. 1e6);
    ("aot.overhead_x", aot /. execute);
    ("aot.t0_run_s", self "run.aot_t0");
    ("probe.dispatch_s", probe_default -. execute);
    ("probe.overhead_x", probe /. execute);
    ("probe.t0_run_s", self "run.probe_t0");
    ("analysis.callback_s", aot -. aot_default);
    ("gc.s", self "gc");
    ("fork.s", self "fork" /. n);
    ("snapshot.capture_s", self "snapshot.capture" /. n);
    ("snapshot.restore_s", restore);
    ("serve.restore_share", restore /. serve_run);
    ("serve.run_s", serve_run);
    ("serve.scaling_2v1", self ~legs:[ "serve" ] "serve.farm" /. self "serve.farm2");
    (* the collections before each leg are the benchmark's, not the system's *)
    ("trace.unattributed_pct", 100.0 *. unattributed /. (sample_dur -. self "gc"));
    ("noise.wall_over_cpu", Suite.wall_over_cpu s) ]

(* ------------------------------------------------------------------ *)
(* Result documents                                                    *)
(* ------------------------------------------------------------------ *)

(** The fastest sample: the lowest time or the highest rate. On a shared
    machine, interference only ever slows a sample down, and it comes in
    episodes of seconds (during which CPU time slows as much as wall
    time); the best sample is the steadiest estimate of the code's own
    cost. *)
let best mt xs =
  List.fold_left (if mt.higher_is_better then Float.max else Float.min) (List.hd xs) xs

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  samples : int;
  wall_over_cpu : float;  (** median over the samples' main legs *)
  values : (metric * float * float list) list;
      (** the reported value, and one value per sample *)
}

let num x = Json.Num x
let int n = Json.Num (float_of_int n)

(** The full record of one workload run, as written by [--out]. *)
let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct); ("attempted", int r.attempted); ("failed", int r.failed);
      ("failed_ratio", num (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
      ("samples", int r.samples); ("wall_over_cpu", num r.wall_over_cpu);
      ("metrics",
       Json.Obj
         (List.map
            (fun (mt, v, xs) ->
               let p25, med, p75 = Stats.quartiles xs in
               ( mt.name,
                 Json.Obj
                   [ ("unit", Json.Str mt.unit_); ("value", num v); ("median", num med);
                     ("p25", num p25); ("p75", num p75); ("n", int (List.length xs));
                     ("samples", Json.Arr (List.map num xs)) ] ))
            r.values)) ]

(** The one-line summary the last line of standard output carries. *)
let summary_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct); ("attempted", int r.attempted); ("failed", int r.failed);
      ("metrics",
       Json.Obj
         (List.map
            (fun (mt, v, _) ->
               (mt.name, Json.Obj [ ("value", num v); ("unit", Json.Str mt.unit_) ]))
            r.values)) ]

let print_table r =
  Printf.printf "%s: %d samples, %d/%d checks failed, wall/cpu %.3f\n" r.workload r.samples r.failed
    r.attempted r.wall_over_cpu;
  List.iter
    (fun (mt, v, xs) ->
       let p25, med, p75 = Stats.quartiles xs in
       Printf.printf "  %-24s %-9s value %-12.6g median %-12.6g p25 %-12.6g p75 %-12.6g n %d\n"
         mt.name mt.unit_ v med p25 p75 (List.length xs))
    r.values

(** A result set: one document per run, holding one or more workloads. *)
let set_json ~seed ~seconds ~trace results =
  Json.Obj
    [ ("seed", int seed); ("seconds", int seconds); ("trace", Json.Bool trace);
      ("workloads", Json.Obj (List.map (fun r -> (r.workload, result_json r)) results)) ]

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

type bound = { b_metric : metric; b_bound : float }

let bounds_of_benchmark (j : Json.t) =
  List.map
    (fun e ->
       { b_metric =
           m ~up:(Json.to_str (Json.member "better" e) = "higher")
             (Json.to_str (Json.member "name" e)) (Json.to_str (Json.member "unit" e));
         b_bound = Json.to_num (Json.member "bound" e) })
    (Json.to_list (Json.member "end_to_end" j))

(** Disturbed: the machine took the benchmark's processor away for more
    than 5% of the measured wall time. *)
let disturbed_at = 1.05

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(** Set [b] against set [a] for one metric, from their per-sample
    values. A reported (best) value that moved by more than the bound is
    better or worse, one that stayed within it is unchanged. When the
    quarter of either set's samples nearest its best lies further from
    that best than the bound, the best is not reproducible and the row is
    unresolved, unless every sample of one set beats every sample of the
    other. *)
let judge { b_metric = mt; b_bound } ~a ~b =
  let best_a = best mt a and best_b = best mt b in
  let worse_by = (if mt.higher_is_better then best_a -. best_b else best_b -. best_a) /. best_a in
  let reach xs =
    let bx = best mt xs in
    let p25, _, p75 = Stats.quartiles xs in
    Float.abs ((if mt.higher_is_better then p75 else p25) -. bx) /. bx
  in
  let worst mt' xs = best { mt' with higher_is_better = not mt'.higher_is_better } xs in
  let beats x y = if mt.higher_is_better then x > y else x < y in
  let apart = beats (worst mt a) best_b || beats (worst mt b) best_a in
  if Float.max (reach a) (reach b) > b_bound && not apart then Unresolved
  else if worse_by > b_bound then Worse
  else if worse_by < -.b_bound then Better
  else Unchanged

let samples_of metric_json = List.map Json.to_num (Json.to_list (Json.member "samples" metric_json))

(** Rows [(workload, metric, verdict, line)] for every workload in both
    sets and every end-to-end metric of [BENCHMARK.json]. *)
let compare_sets ~bounds a b =
  let workloads set = Json.to_assoc (Json.member "workloads" set) in
  let wa = workloads a and wb = workloads b in
  List.concat_map
    (fun (w, ra) ->
       match List.assoc_opt w wb with
       | None -> []
       | Some rb ->
         let noisy r = Json.to_num (Json.member "wall_over_cpu" r) > disturbed_at in
         let note =
           match noisy ra, noisy rb with
           | false, false -> ""
           | true, false -> "  (A disturbed)"
           | false, true -> "  (B disturbed)"
           | true, true -> "  (A and B disturbed)"
         in
         List.filter_map
           (fun bd ->
              let name = bd.b_metric.name in
              let xa = samples_of (Json.member name (Json.member "metrics" ra))
              and xb = samples_of (Json.member name (Json.member "metrics" rb)) in
              if xa = [] || xb = [] then None
              else
                let v = judge bd ~a:xa ~b:xb in
                let va = best bd.b_metric xa and vb = best bd.b_metric xb in
                Some
                  ( w, name, v,
                    Printf.sprintf "%-14s %-20s %12.6g -> %-12.6g %+7.2f%% (bound %.1f%%)  %s%s" w
                      name va vb
                      (100.0 *. (vb -. va) /. va)
                      (100.0 *. bd.b_bound) (verdict_name v) note ))
           bounds)
    wa
