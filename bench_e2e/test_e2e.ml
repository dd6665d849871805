(* Unit tests of the benchmark's own machinery: order statistics, span
   self time, seeded inputs, the result document and the compare rule. *)

open Bench_e2e

let close = Alcotest.float 1e-9
let triple = Alcotest.(triple close close close)

let test_quartiles () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  Alcotest.check close "odd median" 3.0 (Stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close "even median is the mean of the middle two" 4.0
    (Stats.median [ 7.; 1.; 3.; 5. ]);
  Alcotest.check triple "odd quartiles" (1.5, 3.0, 4.5) (Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check triple "even quartiles" (1.5, 4.0, 6.5) (Stats.quartiles [ 7.; 1.; 3.; 5. ]);
  Alcotest.check triple "ten samples" (0.9875, 1.075, 1.2125)
    (Stats.quartiles [ 0.9; 1.3; 1.0; 1.2; 1.1; 0.95; 1.05; 1.15; 1.25; 1.02 ]);
  Alcotest.check triple "one sample" (2.0, 2.0, 2.0) (Stats.quartiles [ 2.0 ])

let span id parent name kind a b =
  { Spans.id; parent; sample = 0; leg = ""; name; kind; start_ns = Int64.of_int a;
    end_ns = Int64.of_int b }

let test_self_time () =
  let spans =
    [ span 0 (-1) "sample" Spans.Sample 0 100;
      (* back-to-back children *)
      span 1 0 "a" Spans.Leg 10 30;
      span 2 0 "b" Spans.Call 30 50;
      (* nested grandchild *)
      span 3 1 "c" Spans.Call 15 20;
      (* a child that overhangs its parent is clipped to it *)
      span 4 2 "d" Spans.Call 45 60 ]
  in
  let selfs = Spans.self_times spans in
  let self id = snd (List.find (fun ((s : Spans.span), _) -> s.id = id) selfs) *. 1e9 in
  Alcotest.check close "parent" 60.0 (self 0);
  Alcotest.check close "nested" 15.0 (self 1);
  Alcotest.check close "clipped child" 15.0 (self 2);
  Alcotest.check close "leaf" 5.0 (self 3)

let test_recorder () =
  let t = Spans.create () in
  Spans.set_on t true;
  let (), lap =
    Spans.sample t (fun () -> Spans.leg t "leg" (fun () -> Spans.call t "layer" (fun () -> ())))
  in
  Alcotest.(check bool) "lap measured" true (lap.Stats.wall >= 0.0);
  match List.filter (fun (s : Spans.span) -> s.name <> "gc") (Spans.spans t) with
  | [ s; l; c ] ->
    Alcotest.(check (list int)) "parents" [ -1; s.id; l.id ] [ s.parent; l.parent; c.parent ];
    Alcotest.(check string) "leg propagates" "leg" c.leg;
    Alcotest.(check (list int)) "sample ids" [ s.id; s.id; s.id ] [ s.sample; l.sample; c.sample ]
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let programs (w : Suite.spec) seed =
  List.map (fun (name, m) -> (name, Wasm.Encode.encode m)) (w.programs ~seed)

let workload name = Option.get (Suite.find name)

let test_seeded_draws () =
  let w = workload "serve-batch" in
  Alcotest.(check bool) "same seed, same programs" true (programs w 7 = programs w 7);
  Alcotest.(check bool) "seeds 1 and 2 differ" false (programs w 1 = programs w 2);
  (* the seed changes data, not work: sizes and instruction counts agree *)
  let shape seed =
    List.sort compare
      (List.map
         (fun (name, m) ->
            let inst = Wasm.Interp.instantiate ~imports:[] m in
            ignore (Wasm.Interp.invoke_export inst "run" []);
            (name, String.length (Wasm.Encode.encode m), inst.Wasm.Interp.steps))
         (w.programs ~seed))
  in
  Alcotest.(check bool) "seed-independent size and steps" true (shape 1 = shape 2)

let benchmark = lazy (Json.read_file "../BENCHMARK.json")

let declared key =
  List.map
    (fun e ->
       ( Json.to_str (Json.member "name" e),
         Json.to_str (Json.member "unit" e),
         Json.to_str (Json.member "better" e) ))
    (Json.to_list (Json.member key (Lazy.force benchmark)))

let ours ms =
  List.map
    (fun (m : Report.metric) -> (m.name, m.unit_, if m.higher_is_better then "higher" else "lower"))
    ms

let test_declared_metrics () =
  let trip = Alcotest.(list (triple string string string)) in
  Alcotest.check trip "end_to_end" (declared "end_to_end") (ours Report.end_to_end);
  Alcotest.check trip "per_layer" (declared "per_layer") (ours Report.per_layer);
  let names = List.map (fun (w : Suite.spec) -> w.name) Suite.workloads in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun e -> Json.to_str (Json.member "name" e))
       (Json.to_list (Json.member "workloads" (Lazy.force benchmark))))
    names

let test_out_document () =
  let result values =
    { Report.workload = "w"; correct = true; attempted = 3; failed = 0; samples = 2;
      wall_over_cpu = 1.0; values }
  in
  let with_values ms = List.map (fun m -> (m, 1.0, [ 1.0; 2.0 ])) ms in
  List.iter
    (fun (key, ms) ->
       let doc =
         Json.parse
           (Json.to_string
              (Report.set_json ~seed:1 ~seconds:1 ~trace:false [ result (with_values ms) ]))
       in
       let metrics = Json.member "metrics" (Json.member "w" (Json.member "workloads" doc)) in
       List.iter
         (fun (name, unit_, _) ->
            let m = Json.member name metrics in
            Alcotest.(check string) (name ^ " unit") unit_ (Json.to_str (Json.member "unit" m));
            Alcotest.check close (name ^ " median") 1.5 (Json.to_num (Json.member "median" m)))
         (declared key))
    [ ("end_to_end", Report.end_to_end); ("per_layer", Report.per_layer) ]

let test_best () =
  let time = Report.m "t" "s" and rate = Report.m ~up:true "r" "1/s" in
  Alcotest.check close "lowest time" 1.0 (Report.best time [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "highest rate" 3.0 (Report.best rate [ 3.0; 1.0; 2.0 ])

let test_judge () =
  let b = { Report.b_metric = Report.m "t" "s"; b_bound = 0.1 } in
  let v a b' = Report.verdict_name (Report.judge b ~a ~b:b') in
  let around x = [ x; x *. 1.01; x *. 1.02; x *. 1.5 ] in
  Alcotest.(check string) "within bound" "unchanged" (v (around 1.0) (around 1.05));
  Alcotest.(check string) "slower" "worse" (v (around 1.0) (around 1.2));
  Alcotest.(check string) "faster" "better" (v (around 1.0) (around 0.8));
  Alcotest.(check string) "no steady best" "unresolved"
    (v [ 1.0; 1.6; 1.65; 1.7 ] [ 1.05; 1.65; 1.7; 1.75 ]);
  Alcotest.(check string) "every sample slower" "worse"
    (v [ 1.0; 1.6; 1.65; 1.7 ] [ 1.8; 2.0; 2.1; 2.2 ]);
  let up = { b with b_metric = Report.m ~up:true "r" "1/s" } in
  Alcotest.(check string) "higher is better" "better"
    (Report.verdict_name (Report.judge up ~a:[ 1.0; 0.99; 0.98 ] ~b:[ 1.2; 1.19; 1.18 ]))

let () =
  Alcotest.run "bench_e2e"
    [ ("stats", [ Alcotest.test_case "median and quartiles" `Quick test_quartiles ]);
      ("spans",
       [ Alcotest.test_case "self time" `Quick test_self_time;
         Alcotest.test_case "recorder" `Quick test_recorder ]);
      ("suite", [ Alcotest.test_case "seeded draws" `Quick test_seeded_draws ]);
      ("report",
       [ Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_declared_metrics;
         Alcotest.test_case "--out document" `Quick test_out_document;
         Alcotest.test_case "best sample" `Quick test_best;
         Alcotest.test_case "compare verdicts" `Quick test_judge ]) ]
