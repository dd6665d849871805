(** Engine-probe backend tests: spec parsing, event synthesis against
    hand-computed expected streams (so the fuzz oracle's stream equality
    is never vacuous), site/count predicates, live attach/detach — from
    the host side, from a step trigger, and from inside a probe callback
    (re-entrancy) — the tier contract of probed bodies, explicit
    snapshot/restore of the probe set, the probe metric counters, and
    byte-exact exposition goldens for the probe metric families. *)

open Wasm
module B = Builder
module P = Wasabi.Runtime.Probe

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden golden actual =
  let expected = read_file (Filename.concat "golden" golden) in
  if not (String.equal expected actual) then begin
    let dump = Filename.temp_file "probe-golden" ("-" ^ golden) in
    let oc = open_out_bin dump in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "golden mismatch for %s (actual dumped to %s)" golden dump
  end

(** A compact event recorder over the callbacks these tests assert on.
    [counted] also records [begin]/[end] through site counters
    ({!Wasabi.Analysis.site}), which must print what the callbacks do. *)
let recorder ?(counted = false) buf : Wasabi.Analysis.t =
  let l (loc : Wasabi.Location.t) =
    Printf.sprintf "%d:%d" loc.Wasabi.Location.func loc.Wasabi.Location.instr
  in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf ' ') fmt in
  let count name loc = Some (fun () -> p "%s@%s" name (l loc)) in
  {
    Wasabi.Analysis.default with
    const = (fun loc v -> p "const@%s=%s" (l loc) (Value.to_string v));
    binary = (fun loc op _ _ r -> p "binary@%s:%s=%s" (l loc) op (Value.to_string r));
    drop = (fun loc _ -> p "drop@%s" (l loc));
    local = (fun loc op x _ -> p "local@%s:%s.%d" (l loc) op x);
    begin_ = (fun loc _ -> p "begin@%s" (l loc));
    end_ = (fun loc _ _ -> p "end@%s" (l loc));
    call_pre = (fun loc callee _ _ -> p "call@%s->%d" (l loc) callee);
    call_post = (fun loc _ -> p "ret@%s" (l loc));
    site =
      (fun s ->
         match s.spec with
         | Wasabi.Hook.S_begin _ when counted -> count "begin" s.loc
         | S_end _ when counted -> count "end" s.loc
         | _ -> None);
  }

let all_spec = { Obs.Probe.sp_groups = []; sp_func = None; sp_loc = None; sp_nth = 1 }

(** Module: [f] computes [(7 + 35) * 2] with a local round-trip. *)
let arith_module () =
  let b = B.create () in
  let f =
    B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[ Types.I32T ]
      ~body:[ B.i32 7; B.i32 35; B.i32_add; B.local_tee 0; B.local_get 0; B.i32_add ]
  in
  B.export_func b ~name:"f" f;
  B.build b

(* --- spec syntax ----------------------------------------------------- *)

let test_spec_parsing () =
  (match Obs.Probe.parse_spec "const,binary@func=3@nth=5" with
   | Error m -> Alcotest.failf "parse failed: %s" m
   | Ok sp ->
     Alcotest.(check (list string)) "groups" [ "const"; "binary" ] sp.Obs.Probe.sp_groups;
     Alcotest.(check (option int)) "func" (Some 3) sp.Obs.Probe.sp_func;
     Alcotest.(check int) "nth" 5 sp.Obs.Probe.sp_nth;
     Alcotest.(check string) "round-trip" "const,binary@func=3@nth=5"
       (Obs.Probe.spec_to_string sp));
  (match Obs.Probe.parse_spec "all@loc=2:17" with
   | Error m -> Alcotest.failf "parse failed: %s" m
   | Ok sp ->
     Alcotest.(check (list string)) "all is empty group list" [] sp.Obs.Probe.sp_groups;
     Alcotest.(check bool) "loc" true (sp.Obs.Probe.sp_loc = Some (2, 17)));
  List.iter
    (fun bad ->
       match Obs.Probe.parse_spec bad with
       | Ok _ -> Alcotest.failf "accepted %S" bad
       | Error _ -> ())
    [ ""; "const@nth=0"; "const@loc=x"; "const@wat=1"; ",const" ];
  (* validate_spec also vets group names against the hook vocabulary *)
  (match P.validate_spec "const,load" with
   | Ok _ -> ()
   | Error m -> Alcotest.failf "rejected valid spec: %s" m);
  match P.validate_spec "cosnt" with
  | Ok _ -> Alcotest.fail "accepted unknown group"
  | Error m ->
    Alcotest.(check bool) "names the group" true (Helpers.contains m "cosnt")

(* --- event synthesis ------------------------------------------------- *)

let test_events_exact () =
  let m = arith_module () in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  ignore (P.attach c all_spec);
  let r = Interp.invoke_export inst "f" [] in
  Alcotest.(check bool) "result" true (r = [ Value.i32_of_int 84 ]);
  Alcotest.(check string) "exact event stream"
    ("begin@0:-1 const@0:0=i32:7 const@0:1=i32:35 binary@0:2:i32.add=i32:42 "
     ^ "local@0:3:local.tee.0 local@0:4:local.get.0 binary@0:5:i32.add=i32:84 end@0:6 ")
    (Buffer.contents buf)

let test_no_probe_no_events () =
  let m = arith_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let buf = Buffer.create 16 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  ignore c;
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check string) "no probes, no events" "" (Buffer.contents buf)

(* --- predicates ------------------------------------------------------ *)

(** Module: [g] (func 0) returns 1; [f] (func 1) calls [g] twice and
    sums. *)
let two_func_module () =
  let b = B.create () in
  let g = B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[] ~body:[ B.i32 1 ] in
  let f =
    B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ Ast.Call g; Ast.Call g; B.i32_add ]
  in
  B.export_func b ~name:"f" f;
  B.build b

(* the recorded stream of [f] under [spec], with and without counted
   [begin]/[end] sites: the predicates gate counted events too *)
let check_two_funcs msg expected spec =
  List.iter
    (fun counted ->
       let m = two_func_module () in
       Validate.validate_module m;
       let inst = Interp.instantiate ~imports:[] m in
       let buf = Buffer.create 128 in
       let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder ~counted buf) in
       ignore (P.attach c spec);
       ignore (Interp.invoke_export inst "f" []);
       Alcotest.(check string) (if counted then msg ^ " (counted)" else msg) expected
         (Buffer.contents buf))
    [ false; true ]

let test_group_predicate () =
  check_two_funcs "only const events"
    "const@0:0=i32:1 const@0:0=i32:1 "
    { all_spec with sp_groups = [ "const" ] }

let test_func_predicate () =
  check_two_funcs "only func 0's events"
    "begin@0:-1 const@0:0=i32:1 end@0:1 begin@0:-1 const@0:0=i32:1 end@0:1 "
    { all_spec with sp_func = Some 0 }

let test_loc_predicate () =
  check_two_funcs "only the second call site"
    "call@1:1->0 ret@1:1 "
    { all_spec with sp_loc = Some (1, 1) }

let test_nth_predicate () =
  (* const at 0:0 executes twice; @nth=2 skips the first occurrence *)
  check_two_funcs "fires from the 2nd match on"
    "const@0:0=i32:1 "
    { all_spec with sp_groups = [ "const" ]; sp_nth = 2 };
  (* [begin] of f, then of g twice: @nth=2 skips f's *)
  check_two_funcs "counted events from the 2nd match on"
    "begin@0:-1 begin@0:-1 "
    { all_spec with sp_groups = [ "begin" ]; sp_nth = 2 }

(* --- live attach / detach ------------------------------------------- *)

let test_host_call_attach () =
  (* the host function [hook] attaches the probe mid-run: events appear
     only for work after the call returns (next function entries) *)
  let b = B.create () in
  ignore (B.import_func b ~module_name:"env" ~name:"hook" ~params:[] ~results:[]);
  let g = B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[] ~body:[ B.i32 1 ] in
  let f =
    B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ Ast.Call g; Ast.Call 0; Ast.Call g; B.i32_add ]
  in
  B.export_func b ~name:"f" f;
  let m = B.build b in
  Validate.validate_module m;
  let cref = ref None in
  let ext =
    Interp.host_func ~name:"hook" ~params:[] ~results:[] (fun _ ->
      (match !cref with Some c -> ignore (P.attach c all_spec) | None -> ());
      [])
  in
  let inst = Interp.instantiate ~imports:[ ("env", "hook", ext) ] m in
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  cref := Some c;
  let r = Interp.invoke_export inst "f" [] in
  Alcotest.(check bool) "result" true (r = [ Value.i32_of_int 2 ]);
  (* the first Call g ran unprobed; [f]'s own frame entered before the
     attach, so only [g]'s second activation reports *)
  Alcotest.(check string) "events only after the host-side attach"
    "begin@1:-1 const@1:0=i32:1 end@1:1 "
    (Buffer.contents buf)

let test_step_trigger_attach_detach () =
  (* a counting loop that calls a helper every iteration; attachment
     takes effect at the next function {e entry}, so the helper's later
     activations are what a mid-run attach observes *)
  let b = B.create () in
  let g = B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[] ~body:[ B.i32 1 ] in
  let body =
    [ B.i32 200; B.local_set 0 ]
    @ B.loop
        ([ Ast.Call g; Ast.Drop; B.local_get 0; B.i32 1; B.i32_sub; B.local_tee 0 ]
         @ [ Ast.BrIf 0 ])
    @ [ B.local_get 0 ]
  in
  let f = B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[ Types.I32T ] ~body in
  B.export_func b ~name:"f" f;
  let m = B.build b in
  Validate.validate_module m;
  let count_probed probed_setup =
    let inst = Interp.instantiate ~imports:[] m in
    let buf = Buffer.create 1024 in
    let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
    probed_setup c;
    ignore (Interp.invoke_export inst "f" []);
    List.length (String.split_on_char ' ' (Buffer.contents buf)) - 1
  in
  let full = count_probed (fun c -> ignore (P.attach c all_spec)) in
  let head =
    (* attached from the start, detached once the step trigger fires *)
    count_probed (fun c ->
      let e = P.attach c all_spec in
      P.detach_at c ~step:300 e)
  in
  let tail =
    (* nothing until the trigger attaches mid-loop *)
    count_probed (fun c -> P.attach_at c ~step:600 all_spec)
  in
  Alcotest.(check bool) "full-attach stream is large" true (full > 800);
  Alcotest.(check bool) "detach-at window is non-empty" true (head > 0);
  Alcotest.(check bool) "detach-at window is a strict subset" true (head < full);
  Alcotest.(check bool) "attach-at window is non-empty" true (tail > 0);
  Alcotest.(check bool) "attach-at window is a strict subset" true (tail < full)

let test_reentrant_attach_detach () =
  (* a probe callback that bumps a counter and attaches/detaches probes
     from inside the dispatch: must not deadlock, crash, or corrupt the
     entry list; the newly attached probe takes over on later entries *)
  let m = two_func_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let registry = Obs.Metrics.create () in
  let hits = Obs.Metrics.counter ~registry "reentrant_hits_total" in
  let cref = ref None in
  let first = ref None in
  let analysis =
    {
      Wasabi.Analysis.default with
      const =
        (fun _ _ ->
           Obs.Metrics.inc hits;
           match !cref with
           | None -> ()
           | Some c ->
             (match !first with
              | Some e ->
                first := None;
                P.detach c e;
                ignore (P.attach c { all_spec with sp_groups = [ "call" ] })
              | None -> ()));
    }
  in
  let c = P.create ~registry inst analysis in
  cref := Some c;
  first := Some (P.attach c { all_spec with sp_groups = [ "const" ] });
  ignore (Interp.invoke_export inst "f" []);
  (* first const fires, detaches itself, attaches the call probe; the
     second const is silenced (its closure checks the active flag) *)
  Alcotest.(check (float 1e-9)) "exactly one re-entrant hit" 1.0
    (Obs.Metrics.counter_value hits);
  Alcotest.(check int) "one active probe left" 1 (List.length (P.entries c));
  Alcotest.(check int) "both probes recorded" 2 (List.length (P.all_entries c));
  (* the counters observed the re-entrant churn *)
  Alcotest.(check int) "attached" 2 (Obs.Probe.attached_total (P.manager c));
  Alcotest.(check int) "detached" 1 (Obs.Probe.detached_total (P.manager c))

(* --- tier interaction ------------------------------------------------ *)

let tier_of inst j =
  match inst.Interp.inst_code.(j).Interp.c_tier with
  | Interp.T_compiled _ -> `Compiled
  | Interp.T_interp -> `Interp
  | Interp.T_unsupported -> `Unsupported

let test_tier_deopt_and_retier () =
  let m = arith_module () in
  let inst = Interp.instantiate ~imports:[] m in
  Tier1.enable ~threshold:1 inst;
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check bool) "hot body is tier-1" true (tier_of inst 0 = `Compiled);
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  let e = P.attach c all_spec in
  Alcotest.(check bool) "attach compiles nothing: the body is left uncompiled" true
    (tier_of inst 0 = `Interp);
  Alcotest.(check bool) "probe sites installed" true
    (inst.Interp.inst_code.(0).Interp.c_probe <> None);
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check bool) "first entry runs it compiled with its sites" true
    (tier_of inst 0 = `Compiled);
  Alcotest.(check string) "compiled sites report the exact stream"
    ("begin@0:-1 const@0:0=i32:7 const@0:1=i32:35 binary@0:2:i32.add=i32:42 "
     ^ "local@0:3:local.tee.0 local@0:4:local.get.0 binary@0:5:i32.add=i32:84 end@0:6 ")
    (Buffer.contents buf);
  P.detach c e;
  Alcotest.(check bool) "detach removes the probes" true
    (inst.Interp.inst_code.(0).Interp.c_probe = None);
  Alcotest.(check bool) "detach drops the probed closure" true (tier_of inst 0 = `Interp);
  Buffer.clear buf;
  ignore (Interp.invoke_export inst "f" []);
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check bool) "body re-tiers after detach" true (tier_of inst 0 = `Compiled);
  Alcotest.(check string) "no events after detach" "" (Buffer.contents buf)

let test_compile_all_after_attach () =
  (* a probed body's sites are built at its compilation: compiling every
     body right after an attach must still deliver the events *)
  let m = arith_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  ignore (P.attach c all_spec);
  ignore (Tier1.compile_all inst);
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check bool) "the probed body runs compiled" true (tier_of inst 0 = `Compiled);
  Alcotest.(check string) "the exact stream"
    ("begin@0:-1 const@0:0=i32:7 const@0:1=i32:35 binary@0:2:i32.add=i32:42 "
     ^ "local@0:3:local.tee.0 local@0:4:local.get.0 binary@0:5:i32.add=i32:84 end@0:6 ")
    (Buffer.contents buf)

let test_probes_without_tier_policy () =
  (* no tier policy: probes still imply tier 1 for the probed body, while
     the unprobed caller stays on tier 0 and calls into it *)
  let m = two_func_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  ignore (P.attach c { all_spec with sp_func = Some 0 });
  Alcotest.(check bool) "attach compiles nothing" true (tier_of inst 0 = `Interp);
  let r = Interp.invoke_export inst "f" [] in
  Alcotest.(check bool) "result" true (r = [ Value.i32_of_int 2 ]);
  Alcotest.(check bool) "the probed body runs compiled" true (tier_of inst 0 = `Compiled);
  Alcotest.(check bool) "the unprobed body stays on tier 0" true (tier_of inst 1 = `Interp);
  Alcotest.(check string) "same event stream as the @func predicate"
    "begin@0:-1 const@0:0=i32:1 end@0:1 begin@0:-1 const@0:0=i32:1 end@0:1 "
    (Buffer.contents buf)

let test_declined_probed_body () =
  (* tier 1 declines bodies only outside validation (an operand-stack
     underflow here); a probed body has no tier-0 form, so the decline is
     a structured error, never a run without events *)
  let b = B.create () in
  let f = B.add_func b ~params:[] ~results:[] ~locals:[] ~body:[ B.i32_add ] in
  B.export_func b ~name:"f" f;
  let m = B.build b in
  let probe_unsupported what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a probe-unsupported error" what
    | exception Error.Hook_error t ->
      Alcotest.(check string) (what ^ ": error code") "probe-unsupported" t.Error.code
  in
  (* a body tier 1 has already declined fails the attach itself *)
  let inst = Interp.instantiate ~imports:[] m in
  Alcotest.(check int) "nothing compiles" 0 (Tier1.compile_all inst);
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder (Buffer.create 16)) in
  probe_unsupported "attach" (fun () -> P.attach c all_spec);
  Alcotest.(check int) "the failed attach leaves no active probe" 0 (List.length (P.entries c));
  (* one never seen by tier 1 fails at its first entry *)
  let inst = Interp.instantiate ~imports:[] m in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder (Buffer.create 16)) in
  ignore (P.attach c all_spec);
  probe_unsupported "first entry" (fun () -> Interp.invoke_export inst "f" [])

(* --- snapshot/restore ------------------------------------------------ *)

let test_snapshot_rearms_probe_set () =
  let m = two_func_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  let a = P.attach c { all_spec with sp_groups = [ "const" ]; sp_nth = 2 } in
  ignore (Interp.invoke_export inst "f" []);
  let snap = Snapshot.capture inst in
  (* mutate the probe set after the snapshot: detach A, attach B *)
  P.detach c a;
  ignore (P.attach c { all_spec with sp_groups = [ "call" ] });
  Snapshot.restore snap inst;
  (* exactly the captured set is active again, with fresh hit counters *)
  (match P.entries c with
   | [ e ] ->
     Alcotest.(check (list string)) "captured spec re-armed" [ "const" ]
       e.Obs.Probe.e_spec.Obs.Probe.sp_groups;
     Alcotest.(check int) "nth predicate preserved" 2 e.Obs.Probe.e_spec.Obs.Probe.sp_nth;
     Alcotest.(check int) "hit counter is fresh" 0 e.Obs.Probe.e_hits
   | es -> Alcotest.failf "expected 1 re-armed probe, got %d" (List.length es));
  Buffer.clear buf;
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check string) "restored run fires like the captured set"
    "const@0:0=i32:1 " (Buffer.contents buf)

let test_snapshot_predating_probes_detaches () =
  let m = arith_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let snap = Snapshot.capture inst in
  (* the controller and its probe arrive only after the capture *)
  let buf = Buffer.create 16 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  ignore (P.attach c all_spec);
  Snapshot.restore snap inst;
  Alcotest.(check int) "restore detaches post-snapshot probes" 0
    (List.length (P.entries c));
  ignore (Interp.invoke_export inst "f" []);
  Alcotest.(check string) "no events after restore" "" (Buffer.contents buf)

(* --- metrics --------------------------------------------------------- *)

let test_probe_counters () =
  let m = two_func_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let registry = Obs.Metrics.create () in
  let c = P.create ~registry inst Wasabi.Analysis.default in
  let e = P.attach c { all_spec with sp_groups = [ "const" ] } in
  ignore (Interp.invoke_export inst "f" []);
  P.detach c e;
  P.detach c e;
  let mgr = P.manager c in
  Alcotest.(check int) "attached" 1 (Obs.Probe.attached_total mgr);
  Alcotest.(check int) "fired counts both const events" 2 (Obs.Probe.fired_total mgr);
  Alcotest.(check int) "detach is idempotent" 1 (Obs.Probe.detached_total mgr);
  Alcotest.(check int) "entry-level fire count" 2 e.Obs.Probe.e_fired

(** The registry both probe-metric goldens render from: a deterministic
    attach / fire / detach sequence over the two-function module. *)
let probe_golden_registry () =
  let registry = Obs.Metrics.create () in
  let m = two_func_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let c = P.create ~registry inst Wasabi.Analysis.default in
  let e = P.attach c { all_spec with sp_groups = [ "const" ] } in
  let e2 = P.attach c { all_spec with sp_groups = [ "call" ]; sp_nth = 2 } in
  ignore (Interp.invoke_export inst "f" []);
  P.detach c e;
  P.detach c e2;
  registry

let test_probe_metrics_prometheus_golden () =
  check_golden "probe_metrics.prom" (Obs.Metrics.to_prometheus (probe_golden_registry ()))

let test_probe_metrics_json_golden () =
  check_golden "probe_metrics.json" (Obs.Metrics.to_json (probe_golden_registry ()))

(* --- profiling ------------------------------------------------------- *)

let test_profile_distinguishes_probe_dispatch () =
  let m = arith_module () in
  let inst = Interp.instantiate ~imports:[] m in
  let buf = Buffer.create 128 in
  let c = P.create ~registry:(Obs.Metrics.create ()) inst (recorder buf) in
  ignore (P.attach c all_spec);
  let prof = Obs.Profile.create () in
  P.attach_profiler c (Some prof);
  ignore (Interp.invoke_export inst "f" []);
  let timers = List.map (fun (name, _, _) -> name) (Obs.Profile.timer_list prof) in
  Alcotest.(check bool) "dispatch.probe present" true (List.mem "dispatch.probe" timers);
  Alcotest.(check bool) "dispatch.analysis present" true
    (List.mem "dispatch.analysis" timers);
  Alcotest.(check bool) "per-group hook timer present" true (List.mem "hook.const" timers);
  (* the AOT decode split must not appear: no marshalling happens here *)
  Alcotest.(check bool) "dispatch.decode absent" false (List.mem "dispatch.decode" timers)

let suite =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "spec parsing and validation" test_spec_parsing;
    case "exact event stream" test_events_exact;
    case "no probes, no events" test_no_probe_no_events;
    case "group predicate" test_group_predicate;
    case "@func predicate" test_func_predicate;
    case "@loc predicate" test_loc_predicate;
    case "@nth predicate" test_nth_predicate;
    case "host-call live attach" test_host_call_attach;
    case "step-trigger attach/detach window" test_step_trigger_attach_detach;
    case "re-entrant attach/detach from a probe callback" test_reentrant_attach_detach;
    case "tier-1 deopt on attach, re-tier on detach" test_tier_deopt_and_retier;
    case "probes imply tier 1 without a tier policy" test_probes_without_tier_policy;
    case "a declined probed body is a structured error" test_declined_probed_body;
    case "snapshot re-arms the captured probe set" test_snapshot_rearms_probe_set;
    case "snapshot predating probes detaches on restore" test_snapshot_predating_probes_detaches;
    case "probe counters" test_probe_counters;
    case "probe metrics: Prometheus golden" test_probe_metrics_prometheus_golden;
    case "probe metrics: JSON golden" test_probe_metrics_json_golden;
    case "profile splits out dispatch.probe" test_profile_distinguishes_probe_dispatch;
    case "compile_all after attach keeps the events" test_compile_all_after_attach;
  ]
