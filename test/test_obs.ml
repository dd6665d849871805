(** Observability layer tests: metrics registry semantics (registration
    idempotence, histogram bucket boundaries), byte-exact golden files
    for the Prometheus and Chrome-trace emitters, span nesting, the
    profiler's shadow-call-stack accounting under a fake clock, and the
    profiler wired end to end through the interpreter and the hook
    dispatch path. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Compare [actual] against the golden file; on mismatch, dump the
    actual output next to the golden so the diff is one [diff] away. *)
let check_golden golden actual =
  let expected = read_file (Filename.concat "golden" golden) in
  if not (String.equal expected actual) then begin
    let dump = Filename.temp_file "obs-golden" ("-" ^ golden) in
    let oc = open_out_bin dump in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "golden mismatch for %s (actual dumped to %s)" golden dump
  end

(* --- metrics --------------------------------------------------------- *)

let test_metrics_basics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg "requests_total" in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:2.5 c;
  Alcotest.(check (float 1e-9)) "counter accumulates" 3.5 (Obs.Metrics.counter_value c);
  (* same (name, labels) yields the same metric *)
  let c' = Obs.Metrics.counter ~registry:reg "requests_total" in
  Obs.Metrics.inc c';
  Alcotest.(check (float 1e-9)) "registration is idempotent" 4.5 (Obs.Metrics.counter_value c);
  (* distinct labels are distinct metrics *)
  let cl = Obs.Metrics.counter ~registry:reg ~labels:[ ("kind", "a") ] "requests_total" in
  Obs.Metrics.inc cl;
  Alcotest.(check (float 1e-9)) "labels separate metrics" 1.0 (Obs.Metrics.counter_value cl);
  let g = Obs.Metrics.gauge ~registry:reg "depth" in
  Obs.Metrics.set g 7.0;
  Obs.Metrics.set g 3.0;
  Alcotest.(check (float 1e-9)) "gauge keeps last value" 3.0 (Obs.Metrics.gauge_value g);
  (* a name registered as one kind cannot be re-registered as another *)
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "depth: registered with a different metric type")
    (fun () -> ignore (Obs.Metrics.counter ~registry:reg "depth"))

let test_histogram_buckets () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:reg ~bounds:[| 1.0; 2.0 |] "latency" in
  (* bounds are inclusive upper bounds; above the last bound is +Inf *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0 ];
  Alcotest.(check (array int)) "bucket boundaries are inclusive" [| 2; 2; 1 |]
    h.Obs.Metrics.h_buckets;
  Alcotest.(check int) "count" 5 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 8.0 (Obs.Metrics.histogram_sum h)

(** The registry that both exposition goldens are rendered from:
    exercises label escaping, family grouping, help-less metrics and
    histogram bucket emission. *)
let golden_registry () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg ~help:"Total cases" ~labels:[ ("kind", "gen") ] "cases_total" in
  Obs.Metrics.inc ~by:41.0 c;
  let c2 = Obs.Metrics.counter ~registry:reg ~help:"Total cases" ~labels:[ ("kind", "mut") ] "cases_total" in
  Obs.Metrics.inc ~by:7.0 c2;
  let esc =
    Obs.Metrics.counter ~registry:reg ~labels:[ ("path", "a\\b\"c\nd") ] "escapes_total"
  in
  Obs.Metrics.inc esc;
  let g = Obs.Metrics.gauge ~registry:reg ~help:"Cases per second" "rate" in
  Obs.Metrics.set g 123.5;
  let h =
    Obs.Metrics.histogram ~registry:reg ~help:"Oracle seconds" ~bounds:[| 0.001; 0.01; 0.1 |]
      ~labels:[ ("oracle", "decode") ] "oracle_seconds"
  in
  List.iter (Obs.Metrics.observe h) [ 0.0005; 0.002; 0.02; 0.05; 0.5 ];
  reg

let test_prometheus_golden () =
  check_golden "metrics.prom" (Obs.Metrics.to_prometheus (golden_registry ()))

let test_json_golden () =
  check_golden "metrics.json" (Obs.Metrics.to_json (golden_registry ()))

(* --- spans ----------------------------------------------------------- *)

let test_trace_golden () =
  Obs.Span.reset ();
  (* a parent enclosing two children, Chrome "complete" events: nesting
     is encoded purely by ts/dur containment *)
  Obs.Span.add_complete ~depth:1 ~name:"decode" ~ts_ns:1_000L ~dur_ns:2_500L ();
  Obs.Span.add_complete ~depth:1 ~name:"va\"lidate" ~ts_ns:4_000L ~dur_ns:1_500L ();
  Obs.Span.add_complete ~depth:0 ~name:"pipeline" ~ts_ns:0L ~dur_ns:10_000L ();
  check_golden "trace.json" (Obs.Span.to_chrome_json ());
  Obs.Span.reset ()

let test_span_nesting () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false; Obs.Span.reset ())
    (fun () ->
       let r =
         Obs.Span.with_ "outer" (fun () ->
             Obs.Span.with_ "inner" (fun () -> ());
             (try Obs.Span.with_ "raises" (fun () -> failwith "boom") with Failure _ -> ());
             17)
       in
       Alcotest.(check int) "with_ passes the result through" 17 r;
       match Obs.Span.events () with
       | [ inner; raises; outer ] ->
         Alcotest.(check string) "children emitted before parent" "inner" inner.Obs.Span.ev_name;
         Alcotest.(check string) "span recorded despite exception" "raises" raises.Obs.Span.ev_name;
         Alcotest.(check string) "parent last" "outer" outer.Obs.Span.ev_name;
         Alcotest.(check int) "child depth" 1 inner.Obs.Span.ev_depth;
         Alcotest.(check int) "parent depth" 0 outer.Obs.Span.ev_depth;
         Alcotest.(check bool) "parent starts before child" true
           (Int64.compare outer.Obs.Span.ev_ts_ns inner.Obs.Span.ev_ts_ns <= 0);
         Alcotest.(check bool) "parent contains child" true
           (Int64.compare
              (Int64.add inner.Obs.Span.ev_ts_ns inner.Obs.Span.ev_dur_ns)
              (Int64.add outer.Obs.Span.ev_ts_ns outer.Obs.Span.ev_dur_ns)
            <= 0)
       | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_span_disabled () =
  Obs.Span.reset ();
  Alcotest.(check int) "disabled with_ is transparent" 5 (Obs.Span.with_ "x" (fun () -> 5));
  Alcotest.(check int) "disabled with_ records nothing" 0 (List.length (Obs.Span.events ()))

(* --- profiler -------------------------------------------------------- *)

(** A fake clock advancing 10 ns per reading gives every enter/leave
    pair deterministic timestamps. *)
let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 10L;
    !t

let test_profile_self_incl () =
  let p = Obs.Profile.create ~clock:(fake_clock ()) () in
  (* f0 calls f1; each clock reading advances 10 ns *)
  Obs.Profile.enter p 0;  (* t=10 *)
  Obs.Profile.enter p 1;  (* t=20 *)
  Obs.Profile.leave p;    (* t=30: f1 total 10, self 10 *)
  Obs.Profile.leave p;    (* t=40: f0 total 30, child 10, self 20 *)
  match Obs.Profile.func_rows p with
  | [ a; b ] ->
    Alcotest.(check int) "hottest first" 0 a.Obs.Profile.fr_fid;
    Alcotest.(check int) "calls" 1 a.Obs.Profile.fr_calls;
    Alcotest.(check int64) "caller self = total - child" 20L a.Obs.Profile.fr_self_ns;
    Alcotest.(check int64) "caller inclusive" 30L a.Obs.Profile.fr_incl_ns;
    Alcotest.(check int64) "callee self" 10L b.Obs.Profile.fr_self_ns;
    Alcotest.(check int64) "callee inclusive" 10L b.Obs.Profile.fr_incl_ns;
    Alcotest.(check (list string)) "folded stacks"
      [ "f0 20"; "f0;f1 10" ]
      (Obs.Profile.folded_lines ~name_of:(Printf.sprintf "f%d") p)
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_profile_recursion () =
  let p = Obs.Profile.create ~clock:(fake_clock ()) () in
  (* f0 -> f0 -> f0: inclusive must only count the outermost activation *)
  Obs.Profile.enter p 0;  (* t=10 *)
  Obs.Profile.enter p 0;  (* t=20 *)
  Obs.Profile.enter p 0;  (* t=30 *)
  Obs.Profile.leave p;    (* t=40 *)
  Obs.Profile.leave p;    (* t=50 *)
  Obs.Profile.leave p;    (* t=60 *)
  match Obs.Profile.func_rows p with
  | [ r ] ->
    Alcotest.(check int) "three activations" 3 r.Obs.Profile.fr_calls;
    Alcotest.(check int64) "inclusive counted once, not tripled" 50L r.Obs.Profile.fr_incl_ns;
    (* self: innermost 10, middle 30-10=20... no: each frame's self is
       total minus child time; 10 + 20 + 20 = 50 = wall time of the
       outermost activation *)
    Alcotest.(check int64) "self sums to wall time" 50L r.Obs.Profile.fr_self_ns
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_profile_sites_and_counters () =
  let p = Obs.Profile.create ~clock:(fake_clock ()) () in
  Obs.Profile.bump_run p ~fid:3 ~body_len:5 ~pc:0 ~len:3;
  Obs.Profile.bump_run p ~fid:3 ~body_len:5 ~pc:2 ~len:3;
  (match Obs.Profile.site_counts p 3 with
   | Some counts -> Alcotest.(check (array int)) "per-site counts" [| 1; 1; 2; 1; 1 |] counts
   | None -> Alcotest.fail "no site counts recorded");
  Obs.Profile.count p "x";
  Obs.Profile.count ~by:4 p "x";
  Alcotest.(check (list (pair string int))) "string counters" [ ("x", 5) ]
    (Obs.Profile.counter_list p);
  Obs.Profile.add_time p "hook.load" 100L;
  Obs.Profile.add_time p "hook.load" 50L;
  (match Obs.Profile.timer_list p with
   | [ ("hook.load", 2, 150L) ] -> ()
   | _ -> Alcotest.fail "timer accumulation")

let test_profile_fused_site_attribution () =
  (* fused superinstructions charge every original site exactly once.
     Tier 1 fuses the loop body below (local.get i / const / add /
     local.set i is one closure, the header compare another), yet the
     per-site counts must equal those of the unfused reference — which,
     for site attribution, is simply "each executed original
     instruction counts once per execution". Both tiers must agree with
     it. *)
  let module B = Wasm.Builder in
  let open Wasm.Ast in
  let mk () =
    let bld = B.create () in
    (* for (i = 0; i != 10; i++) acc += i; return acc *)
    let body =
      B.block
        (B.loop
           ([ B.local_get 0; B.i32 10; Compare (IRel (Wasm.Types.S32, Eq)); BrIf 1 ]
            @ [ B.local_get 1; B.local_get 0; B.i32_add; B.local_set 1 ]
            @ [ B.local_get 0; B.i32 1; B.i32_add; B.local_set 0 ]
            @ [ Br 0 ]))
      @ [ B.local_get 1 ]
    in
    let f =
      B.add_func bld ~params:[] ~results:[ Wasm.Types.I32T ]
        ~locals:[ Wasm.Types.I32T; Wasm.Types.I32T ] ~body
    in
    B.export_func bld ~name:"f" f;
    let m = B.build bld in
    Wasm.Validate.validate_module m;
    m
  in
  let profile tiered =
    let inst = Wasm.Interp.instantiate ~imports:[] (mk ()) in
    if tiered then ignore (Wasm.Tier1.compile_all inst);
    let p = Obs.Profile.create () in
    Wasm.Interp.set_profiler inst (Some p);
    Helpers.check_values "result" [ Helpers.i32 45 ]
      (Wasm.Interp.invoke_export inst "f" []);
    (inst, p)
  in
  let inst, p = profile false in
  let fid =
    (* the only defined function *)
    Array.length inst.Wasm.Interp.inst_code - 1
  in
  let counts =
    match Obs.Profile.site_counts p fid with
    | Some c -> c
    | None -> Alcotest.fail "no site counts recorded"
  in
  (* the reference, per original site: block/loop entry once; the header
     compare (local.get/const/eq/br_if — a fused group) 11 times, ten
     failing passes plus the exit pass; the two fused groups in the loop
     body (acc += i and the i++ increment) 10 times each at every
     original position; the two end instructions never (the br_if exits
     over them); the epilogue once *)
  let expected =
    [| 1; 1; 11; 11; 11; 11; 10; 10; 10; 10; 10; 10; 10; 10; 10; 0; 0; 1 |]
  in
  Alcotest.(check (array int)) "fused sites charge like the unfused reference"
    expected counts;
  Alcotest.(check int) "site counts sum to retired instructions"
    inst.Wasm.Interp.steps (Array.fold_left ( + ) 0 counts);
  (* and the compiled tier, which fuses the loop body, produces the
     identical profile *)
  let fused_before = (Wasm.Tier1.peephole ()).fused in
  let inst1, p1 = profile true in
  Alcotest.(check bool) "the loop body actually fused" true
    ((Wasm.Tier1.peephole ()).fused >= fused_before + 2);
  Alcotest.(check int) "tiers retire the same instruction count"
    inst.Wasm.Interp.steps inst1.Wasm.Interp.steps;
  (match Obs.Profile.site_counts p1 fid with
   | Some c1 -> Alcotest.(check (array int)) "tier-1 site counts match tier 0" counts c1
   | None -> Alcotest.fail "no tier-1 site counts recorded")

(* --- profiler through the interpreter -------------------------------- *)

(** Two-function workload: [run] calls [helper] 50 times. *)
let two_func_module () =
  let open Minic.Mc_ast in
  let open Minic.Mc_ast.Dsl in
  Minic.Mc_compile.compile
    (program
       [ func "helper" ~params:[ ("x", TInt) ] ~result:TInt
           [ Return (Some (Binop (Mul, v "x", v "x"))) ];
         func "run" ~result:TFloat ~locals:[ ("i", TInt); ("acc", TInt) ]
           [ For ("i", i 0, i 50,
                  [ Assign ("acc", Binop (Add, v "acc", Call ("helper", [ v "i" ]))) ]);
             Return (Some (Cast (TFloat, v "acc"))) ] ])

let test_interp_profiler () =
  let m = two_func_module () in
  Wasm.Validate.validate_module m;
  let inst = Wasm.Interp.instantiate ~imports:[] m in
  let p = Obs.Profile.create () in
  Wasm.Interp.set_profiler inst (Some p);
  ignore (Wasm.Interp.invoke_export inst "run" []);
  let rows = Obs.Profile.func_rows p in
  Alcotest.(check int) "both functions profiled" 2 (List.length rows);
  let by_name =
    List.map (fun (r : Obs.Profile.func_row) ->
        (Wasm.Profile_report.func_name inst r.fr_fid, r))
      rows
  in
  let helper = List.assoc "helper" by_name and run = List.assoc "run" by_name in
  Alcotest.(check int) "helper called 50 times" 50 helper.Obs.Profile.fr_calls;
  Alcotest.(check int) "run called once" 1 run.Obs.Profile.fr_calls;
  (* every retired instruction is attributed to exactly one site *)
  let site_total = ref 0 in
  Obs.Profile.iter_sites p (fun _ counts -> Array.iter (fun c -> site_total := !site_total + c) counts);
  Alcotest.(check int) "site counts sum to retired instructions"
    inst.Wasm.Interp.steps !site_total;
  let mix = Wasm.Profile_report.opcode_mix inst p in
  Alcotest.(check bool) "opcode mix includes the multiply" true
    (List.mem_assoc "i32.mul" mix);
  let table = Wasm.Profile_report.func_table inst p in
  Alcotest.(check bool) "table names the exports" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains table "helper" && contains table "run");
  (* detaching stops the accounting *)
  Wasm.Interp.set_profiler inst None;
  let steps_before = !site_total in
  ignore (Wasm.Interp.invoke_export inst "run" []);
  let site_total' = ref 0 in
  Obs.Profile.iter_sites p (fun _ counts -> Array.iter (fun c -> site_total' := !site_total' + c) counts);
  Alcotest.(check int) "no accounting after detach" steps_before !site_total'

let test_hook_dispatch_profiling () =
  let m = two_func_module () in
  Wasm.Validate.validate_module m;
  let groups = Wasabi.Hook.of_list [ Wasabi.Hook.G_binary; Wasabi.Hook.G_call ] in
  let res = Wasabi.Instrument.instrument ~groups m in
  let inst, rt = Wasabi.Runtime.instantiate res Wasabi.Analysis.default in
  let p = Obs.Profile.create () in
  Wasabi.Runtime.attach_profiler rt (Some p);
  ignore (Wasm.Interp.invoke_export inst "run" []);
  let timers = Obs.Profile.timer_list p in
  let keys = List.map (fun (k, _, _) -> k) timers in
  Alcotest.(check bool) "binary hook dispatches timed" true (List.mem "hook.binary" keys);
  Alcotest.(check bool) "call hook dispatches timed" true (List.mem "hook.call" keys);
  List.iter
    (fun (k, calls, ns) ->
       Alcotest.(check bool) (k ^ " has dispatches") true (calls > 0);
       Alcotest.(check bool) (k ^ " time is non-negative") true (Int64.compare ns 0L >= 0))
    timers

(* --- monomorphization-cache statistics ------------------------------- *)

let test_hook_map_stats () =
  let m = two_func_module () in
  let res = Wasabi.Instrument.instrument m in
  let hm = res.Wasabi.Instrument.hook_map in
  let total = Wasabi.Hook.Map.total_requests hm in
  Alcotest.(check bool) "requests recorded" true (total > 0);
  Alcotest.(check int) "requests = hits + misses" total
    (Wasabi.Hook.Map.hits hm + Wasabi.Hook.Map.misses hm);
  Alcotest.(check int) "misses = generated hooks" (Wasabi.Hook.Map.count hm)
    (Wasabi.Hook.Map.misses hm);
  let reqs = Wasabi.Hook.Map.requests hm in
  Alcotest.(check int) "one row per generated hook" (Wasabi.Hook.Map.count hm)
    (Array.length reqs);
  Array.iter
    (fun (spec, n) ->
       Alcotest.(check bool) (Wasabi.Hook.name spec ^ " requested at least once") true (n >= 1))
    reqs;
  Alcotest.(check int) "request rows sum to the total" total
    (Array.fold_left (fun acc (_, n) -> acc + n) 0 reqs)

(* --- fuzz replay disposition ----------------------------------------- *)

let test_replay_disposition () =
  (* fixed-seed cases replay deterministically; a passing case must come
     back as [Pass], not as a string to be sniffed *)
  (match Fuzz.Harness.replay ~seed:42 ~index:3 Fuzz.Harness.Generated with
   | Fuzz.Harness.Pass _ | Fuzz.Harness.Skip _ -> ()
   | Fuzz.Harness.Fail { oracle; detail } ->
     Alcotest.failf "seed 42 gen:3 regressed: [%s] %s" oracle detail);
  Alcotest.(check string) "fail rendering"
    "FAIL [totality-decode]: boom"
    (Fuzz.Harness.disposition_to_string
       (Fuzz.Harness.Fail { oracle = "totality-decode"; detail = "boom" }));
  Alcotest.(check string) "plain pass rendering" "pass"
    (Fuzz.Harness.disposition_to_string (Fuzz.Harness.Pass ""))

let test_fuzz_metrics () =
  let reg = Obs.Metrics.create () in
  let stats, _ =
    Fuzz.Harness.run ~metrics:reg ~seed:7 ~gen_count:5 ~mut_count:5 ()
  in
  Alcotest.(check int) "gen cases" 5 stats.Fuzz.Harness.gen_cases;
  let gen =
    Obs.Metrics.counter ~registry:reg ~labels:[ ("kind", "gen") ] "fuzz_cases_total"
  in
  Alcotest.(check (float 1e-9)) "case counter matches stats" 5.0
    (Obs.Metrics.counter_value gen);
  (* per-oracle histograms exist and observed every generated case *)
  let h =
    Obs.Metrics.histogram ~registry:reg ~labels:[ ("oracle", "totality-validate") ]
      "fuzz_oracle_seconds"
  in
  Alcotest.(check bool) "oracle timings recorded" true
    (Obs.Metrics.histogram_count h >= 5)

let suite =
  [ Alcotest.test_case "metrics: counters, gauges, registration" `Quick test_metrics_basics;
    Alcotest.test_case "metrics: histogram bucket boundaries" `Quick test_histogram_buckets;
    Alcotest.test_case "metrics: Prometheus exposition golden" `Quick test_prometheus_golden;
    Alcotest.test_case "metrics: JSON exposition golden" `Quick test_json_golden;
    Alcotest.test_case "span: Chrome trace JSON golden" `Quick test_trace_golden;
    Alcotest.test_case "span: nesting and exception safety" `Quick test_span_nesting;
    Alcotest.test_case "span: disabled tracing is transparent" `Quick test_span_disabled;
    Alcotest.test_case "profile: self/inclusive with fake clock" `Quick test_profile_self_incl;
    Alcotest.test_case "profile: recursion-safe inclusive time" `Quick test_profile_recursion;
    Alcotest.test_case "profile: site counts and counters" `Quick test_profile_sites_and_counters;
    Alcotest.test_case "profile: fused site attribution (t0 = reference = t1)" `Quick
      test_profile_fused_site_attribution;
    Alcotest.test_case "interp: end-to-end profiling" `Quick test_interp_profiler;
    Alcotest.test_case "runtime: hook dispatch timing" `Quick test_hook_dispatch_profiling;
    Alcotest.test_case "hooks: monomorphization-cache stats" `Quick test_hook_map_stats;
    Alcotest.test_case "fuzz: structured replay disposition" `Quick test_replay_disposition;
    Alcotest.test_case "fuzz: campaign metrics" `Quick test_fuzz_metrics ]
