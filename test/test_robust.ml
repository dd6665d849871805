(** Fault containment: the resource governor (deadline / memory-growth /
    host-call budgets and their structured exit codes), instance
    snapshot/restore idempotence over the fuzz corpus on both tiers,
    tier-1 deopt after a contained fault, and the restore-equivalence
    fault-injection campaign (the acceptance gate: 2000 fixed-seed
    cases, zero violations). *)

open Wasm

let case name fn = Alcotest.test_case name `Quick fn

let classify_exn e =
  match Error.classify e with
  | Some t -> t
  | None -> Alcotest.failf "unclassified exception: %s" (Printexc.to_string e)

let raised f =
  match f () with
  | _ -> Alcotest.fail "expected an exception"
  | exception e -> e

let instantiate_wat ?fuel ?(imports = []) src =
  let m = Wat_parse.parse src in
  Validate.validate_module m;
  Interp.instantiate ?fuel ~imports m

(* ------------------------------------------------------------------ *)
(* Taxonomy: codes and exit codes of the new failure modes             *)
(* ------------------------------------------------------------------ *)

let test_error_codes () =
  let fuel = classify_exn (Interp.Exhaustion "out of fuel") in
  Alcotest.(check string) "fuel code" "resource-exhausted" fuel.Error.code;
  Alcotest.(check int) "fuel exit" 7 (Error.exit_code fuel);
  let depth = classify_exn (Interp.Exhaustion "call stack exhausted") in
  Alcotest.(check string) "call-depth code" "resource-exhausted" depth.Error.code;
  Alcotest.(check int) "call-depth exit" 7 (Error.exit_code depth);
  Alcotest.(check bool) "messages still distinguish the two" true
    (not (String.equal fuel.Error.message depth.Error.message));
  let gov code = classify_exn (raised (fun () -> Error.governor_error ~code "boom")) in
  List.iter
    (fun (code, exit) ->
       let t = gov code in
       Alcotest.(check string) (code ^ " code") code t.Error.code;
       Alcotest.(check int) (code ^ " exit") exit (Error.exit_code t))
    [ ("deadline-exceeded", 10); ("memory-growth-limit", 11); ("host-call-budget", 12) ];
  let inj = classify_exn (Value.Trap "injected host fault") in
  Alcotest.(check string) "injected fault code" "injected-fault" inj.Error.code;
  Alcotest.(check int) "injected fault is a trap" 6 (Error.exit_code inj)

(* ------------------------------------------------------------------ *)
(* Governor: deadline                                                  *)
(* ------------------------------------------------------------------ *)

let loop_src =
  {|(module
      (func (export "run")
        (local i32)
        (block
          (loop
            (local.set 0 (i32.add (local.get 0) (i32.const 1)))
            (br_if 1 (i32.ge_s (local.get 0) (i32.const 1000000)))
            (br 0)))))|}

let test_deadline () =
  let inst = instantiate_wat ~fuel:50_000_000 loop_src in
  let gov = Governor.create ~deadline_ms:60_000.0 () in
  Interp.set_governor inst (Some gov);
  (* a generous deadline does not interfere *)
  Governor.arm gov;
  ignore (Interp.invoke_export inst "run" []);
  (* a forced expiry kills the run at the next batch boundary *)
  Governor.arm gov;
  Governor.expire gov;
  (match raised (fun () -> Interp.invoke_export inst "run" []) with
   | Error.Governor_limit t ->
     Alcotest.(check string) "expired code" "deadline-exceeded" t.Error.code
   | e -> Alcotest.failf "expected Governor_limit, got %s" (Printexc.to_string e));
  (* a real zero deadline is hit by the clock inside one long run *)
  inst.Interp.fuel <- 50_000_000;
  let zero = Governor.create ~deadline_ms:0.0 () in
  Interp.set_governor inst (Some zero);
  Governor.arm zero;
  (match raised (fun () -> Interp.invoke_export inst "run" []) with
   | Error.Governor_limit t ->
     Alcotest.(check string) "clock code" "deadline-exceeded" t.Error.code
   | e -> Alcotest.failf "expected Governor_limit, got %s" (Printexc.to_string e));
  (* re-arming recovers the instance for governed use *)
  Interp.set_governor inst (Some gov);
  Governor.arm gov;
  inst.Interp.fuel <- 50_000_000;
  inst.Interp.inst_stack.Interp.size <- 0;
  inst.Interp.call_depth <- 0;
  ignore (Interp.invoke_export inst "run" [])

(* ------------------------------------------------------------------ *)
(* Governor: host-call budget                                          *)
(* ------------------------------------------------------------------ *)

let tick_src =
  {|(module
      (import "env" "tick" (func $tick))
      (func (export "run") (call $tick) (call $tick) (call $tick)))|}

let tick_import calls =
  ( "env",
    "tick",
    Interp.host_func ~name:"tick" ~params:[] ~results:[]
      (fun _ -> incr calls; []) )

let test_host_call_budget () =
  let calls = ref 0 in
  let inst = instantiate_wat ~imports:[ tick_import calls ] tick_src in
  (* budget of 3 covers the run exactly *)
  let enough = Governor.create ~host_call_budget:3 () in
  Interp.set_governor inst (Some enough);
  Governor.arm enough;
  ignore (Interp.invoke_export inst "run" []);
  Alcotest.(check int) "all three calls made" 3 !calls;
  (* budget of 2: the third dispatch is rejected before the host runs *)
  calls := 0;
  let tight = Governor.create ~host_call_budget:2 () in
  Interp.set_governor inst (Some tight);
  Governor.arm tight;
  (match raised (fun () -> Interp.invoke_export inst "run" []) with
   | Error.Governor_limit t ->
     Alcotest.(check string) "budget code" "host-call-budget" t.Error.code
   | e -> Alcotest.failf "expected Governor_limit, got %s" (Printexc.to_string e));
  Alcotest.(check int) "host ran only inside the budget" 2 !calls;
  (* arm resets the budget *)
  calls := 0;
  inst.Interp.inst_stack.Interp.size <- 0;
  inst.Interp.call_depth <- 0;
  Interp.set_governor inst (Some enough);
  Governor.arm enough;
  ignore (Interp.invoke_export inst "run" []);
  Alcotest.(check int) "re-armed budget covers a fresh run" 3 !calls

(* ------------------------------------------------------------------ *)
(* Governor: memory-growth cap, composing with the declared maximum    *)
(* ------------------------------------------------------------------ *)

let test_grow_cap () =
  let mem = Memory.create ~min_pages:1 ~max_pages:(Some 4) in
  let gov = Governor.create ~max_grow_pages:2 () in
  Governor.arm gov;
  Alcotest.(check int) "first governed grow" 1 (Governor.governed_grow gov mem 1);
  Alcotest.(check int) "second governed grow" 2 (Governor.governed_grow gov mem 1);
  (* per-run budget exhausted: structured violation, no partial commit *)
  (match raised (fun () -> Governor.governed_grow gov mem 1) with
   | Error.Governor_limit t ->
     Alcotest.(check string) "cap code" "memory-growth-limit" t.Error.code
   | e -> Alcotest.failf "expected Governor_limit, got %s" (Printexc.to_string e));
  Alcotest.(check int) "size unchanged after rejection" 3 (Memory.size_pages mem);
  (* the declared maximum still applies underneath the budget, with wasm
     semantics (-1), and a rejected grow does not debit the budget: the
     100-page attempt fits the 100-page budget, so a debit would leave
     nothing for the final 1-page grow *)
  let roomy = Governor.create ~max_grow_pages:100 () in
  Governor.arm roomy;
  Memory.store_i32 mem 0l 0 0x1234l;
  Alcotest.(check int) "declared max rejects" (-1) (Governor.governed_grow roomy mem 100);
  Alcotest.(check int) "no partial commit" 3 (Memory.size_pages mem);
  Alcotest.(check int32) "contents untouched" 0x1234l (Memory.load_i32 mem 0l 0);
  Alcotest.(check int) "budget not debited by the failed grow" 3
    (Governor.governed_grow roomy mem 1);
  Alcotest.(check int) "final size" 4 (Memory.size_pages mem)

(* ------------------------------------------------------------------ *)
(* Snapshot/restore: idempotence over the fuzz corpus, both tiers      *)
(* ------------------------------------------------------------------ *)

let outcome_of inst =
  match Interp.invoke_export inst "run" [] with
  | vs -> Ok (List.map Value.to_string vs)
  | exception e ->
    (match Error.classify e with
     | Some t -> Error t.Error.code
     | None -> raise e)

let test_restore_idempotence () =
  let cases = ref 0 in
  for index = 0 to 149 do
    let info = Fuzz.Harness.gen_case ~seed:21 ~index in
    let fuel = Fuzz.Oracle.base_fuel in
    match Interp.instantiate ~fuel ~imports:[] info.Fuzz.Gen.module_ with
    | exception e when Error.classify e <> None -> ()
    | inst ->
      incr cases;
      if index land 1 = 0 then Tier1.enable ~threshold:1 inst;
      let snap = Snapshot.capture inst in
      let pristine = Snapshot.state_digest inst in
      let fuel0 = inst.Interp.fuel in
      (* first run: success, trap or exhaustion — all must rewind *)
      let out1 = outcome_of inst in
      let after1 = Snapshot.state_digest inst in
      Snapshot.restore snap inst;
      Alcotest.(check string)
        (Printf.sprintf "case %d: restore reaches the pristine digest" index)
        pristine (Snapshot.state_digest inst);
      Alcotest.(check int)
        (Printf.sprintf "case %d: fuel rewound" index)
        fuel0 inst.Interp.fuel;
      Alcotest.(check int)
        (Printf.sprintf "case %d: stack pointer rewound" index)
        0 inst.Interp.inst_stack.Interp.size;
      (* re-running from the restored state reproduces the first run *)
      let out2 = outcome_of inst in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: replayed outcome identical" index)
        true (out1 = out2);
      Alcotest.(check string)
        (Printf.sprintf "case %d: replayed final state identical" index)
        after1 (Snapshot.state_digest inst);
      (* and restore is idempotent from any of those states *)
      Snapshot.restore snap inst;
      Alcotest.(check string)
        (Printf.sprintf "case %d: second restore idempotent" index)
        pristine (Snapshot.state_digest inst)
  done;
  Alcotest.(check bool) "corpus was not trivially skipped" true (!cases > 100)

let test_restore_metric () =
  let before = Obs.Metrics.histogram_count (Obs.Metrics.histogram "wasabi_restore_seconds") in
  let inst = instantiate_wat {|(module (memory 1) (func (export "run")))|} in
  let snap = Snapshot.capture inst in
  Snapshot.restore snap inst;
  let after = Obs.Metrics.histogram_count (Obs.Metrics.histogram "wasabi_restore_seconds") in
  Alcotest.(check bool) "restore observed wasabi_restore_seconds" true (after > before)

(* ------------------------------------------------------------------ *)
(* Tier-1 deopt: a contained fault sends the body back to tier 0       *)
(* ------------------------------------------------------------------ *)

let run_code_of inst =
  match Interp.export_func inst "run" with
  | Interp.Wasm_func (ci, owner) -> owner.Interp.inst_code.(ci)
  | Interp.Host_func _ -> Alcotest.fail "run is not a wasm function"

let test_deopt_on_injected_fault () =
  let calls = ref 0 in
  let faulty =
    ( "env",
      "tick",
      Interp.host_func ~name:"tick" ~params:[] ~results:[]
        (fun _ ->
           incr calls;
           if !calls >= 2 then raise (Value.Trap "injected host fault");
           []) )
  in
  let inst =
    instantiate_wat ~imports:[ faulty ]
      {|(module
          (import "env" "tick" (func $tick))
          (func (export "run") (call $tick)))|}
  in
  Tier1.enable ~threshold:1 inst;
  Interp.set_deopt_on_fault inst true;
  let deopts = Obs.Metrics.counter "wasabi_deopt_total" in
  let before = Obs.Metrics.counter_value deopts in
  ignore (Interp.invoke_export inst "run" []);
  let code = run_code_of inst in
  (match code.Interp.c_tier with
   | Interp.T_compiled _ -> ()
   | _ -> Alcotest.fail "body was not tiered up before the fault");
  (match raised (fun () -> Interp.invoke_export inst "run" []) with
   | Value.Trap "injected host fault" -> ()
   | e -> Alcotest.failf "expected the injected trap, got %s" (Printexc.to_string e));
  (match code.Interp.c_tier with
   | Interp.T_unsupported -> ()
   | _ -> Alcotest.fail "faulted compiled body did not deopt");
  Alcotest.(check bool) "wasabi_deopt_total incremented" true
    (Obs.Metrics.counter_value deopts > before);
  (* the deopt is permanent: the body stays on tier 0 on later runs *)
  calls := 0;
  inst.Interp.inst_stack.Interp.size <- 0;
  inst.Interp.call_depth <- 0;
  ignore (Interp.invoke_export inst "run" []);
  (match code.Interp.c_tier with
   | Interp.T_unsupported -> ()
   | _ -> Alcotest.fail "deopt did not stick")

let test_deopt_on_governor_violation () =
  let calls = ref 0 in
  let inst = instantiate_wat ~imports:[ tick_import calls ] tick_src in
  Tier1.enable ~threshold:1 inst;
  Interp.set_deopt_on_fault inst true;
  let gov = Governor.create ~host_call_budget:100 () in
  Interp.set_governor inst (Some gov);
  Governor.arm gov;
  ignore (Interp.invoke_export inst "run" []);
  let code = run_code_of inst in
  (match code.Interp.c_tier with
   | Interp.T_compiled _ -> ()
   | _ -> Alcotest.fail "body was not tiered up");
  let tight = Governor.create ~host_call_budget:1 () in
  Interp.set_governor inst (Some tight);
  Governor.arm tight;
  (match raised (fun () -> Interp.invoke_export inst "run" []) with
   | Error.Governor_limit t ->
     Alcotest.(check string) "violation code" "host-call-budget" t.Error.code
   | e -> Alcotest.failf "expected Governor_limit, got %s" (Printexc.to_string e));
  (match code.Interp.c_tier with
   | Interp.T_unsupported -> ()
   | _ -> Alcotest.fail "governor-killed compiled body did not deopt")

(* ------------------------------------------------------------------ *)
(* Deopt-on-fault of a probed body: recompiled with its sites          *)
(* ------------------------------------------------------------------ *)

let probed_tick_src =
  {|(module
      (import "env" "tick" (func $tick))
      (func (export "run") (result i32) (local i32)
        (call $tick)
        (local.set 0 (i32.add (i32.const 40) (i32.const 2)))
        (call $tick)
        (local.get 0)))|}

(** A deopt-on-fault instance of [probed_tick_src] under [gov], with
    every hook group probed into [events]. *)
let probed_tick_instance events gov =
  let inst = instantiate_wat ~imports:[ tick_import (ref 0) ] probed_tick_src in
  Interp.set_deopt_on_fault inst true;
  Interp.set_governor inst (Some gov);
  let c =
    Wasabi.Runtime.Probe.create ~registry:(Obs.Metrics.create ()) inst
      (Wasabi.Analysis.reify (fun e -> events := e :: !events))
  in
  ignore
    (Wasabi.Runtime.Probe.attach c
       { Obs.Probe.sp_groups = []; sp_func = None; sp_loc = None; sp_nth = 1 });
  inst

let test_probed_deopt_on_governor_kill () =
  let run_clean inst events =
    let gov = Governor.create ~host_call_budget:100 () in
    Interp.set_governor inst (Some gov);
    Governor.arm gov;
    events := [];
    let r = Interp.invoke_export inst "run" [] in
    (r, List.rev !events)
  in
  let fresh_events = ref [] in
  let fresh = probed_tick_instance fresh_events (Governor.create ()) in
  let want = run_clean fresh fresh_events in
  let events = ref [] in
  let tight = Governor.create ~host_call_budget:1 () in
  let inst = probed_tick_instance events tight in
  let snap = Snapshot.capture inst in
  let deopts = Obs.Metrics.counter "wasabi_deopt_total" in
  let before = Obs.Metrics.counter_value deopts in
  Governor.arm tight;
  (* the second tick exceeds the budget inside the probed, compiled body *)
  (match raised (fun () -> Interp.invoke_export inst "run" []) with
   | Error.Governor_limit t ->
     Alcotest.(check string) "violation code" "host-call-budget" t.Error.code
   | e -> Alcotest.failf "expected Governor_limit, got %s" (Printexc.to_string e));
  Alcotest.(check bool) "wasabi_deopt_total incremented" true
    (Obs.Metrics.counter_value deopts > before);
  let code = run_code_of inst in
  (match code.Interp.c_tier, code.Interp.c_probe with
   | Interp.T_interp, Some _ -> ()
   | _ -> Alcotest.fail "faulted probed body is not pending a recompile with its sites");
  Snapshot.restore snap inst;
  let got = run_clean inst events in
  Alcotest.(check bool) "recompiled at its next entry" true
    (match code.Interp.c_tier with Interp.T_compiled _ -> true | _ -> false);
  Alcotest.(check bool) "clean run after restore = fresh instance (result and events)" true
    (got = want);
  Alcotest.(check bool) "the stream is not trivially empty" true (List.length (snd want) > 8)

(* ------------------------------------------------------------------ *)
(* Fault plans: determinism and replay                                 *)
(* ------------------------------------------------------------------ *)

let test_fault_plan_determinism () =
  for index = 0 to 19 do
    let a = Fuzz.Faults.describe (Fuzz.Faults.plan ~seed:9 ~index) in
    let b = Fuzz.Faults.describe (Fuzz.Faults.plan ~seed:9 ~index) in
    Alcotest.(check string) (Printf.sprintf "plan %d stable" index) a b
  done;
  let distinct =
    List.sort_uniq compare
      (List.init 20 (fun index -> Fuzz.Faults.describe (Fuzz.Faults.plan ~seed:9 ~index)))
  in
  Alcotest.(check bool) "plans vary across indices" true (List.length distinct > 1)

let test_faulted_replay () =
  List.iter
    (fun index ->
       let d1 = Fuzz.Harness.replay ~faults:true ~seed:1 ~index Fuzz.Harness.Generated in
       let d2 = Fuzz.Harness.replay ~faults:true ~seed:1 ~index Fuzz.Harness.Generated in
       Alcotest.(check string)
         (Printf.sprintf "faulted replay of gen:%d deterministic" index)
         (Fuzz.Harness.disposition_to_string d1)
         (Fuzz.Harness.disposition_to_string d2);
       (match d1 with
        | Fuzz.Harness.Fail { oracle; detail } ->
          Alcotest.failf "gen:%d failed under faults: [%s] %s" index oracle detail
        | _ -> ()))
    [ 0; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* Hook faults and budgets at tier-1 bound hook sites                  *)
(* ------------------------------------------------------------------ *)

(* an instrumented corpus program whose hook calls tier 1 binds to site
   entries; [hooked_run ~tier1 observer setup] runs it with the analysis
   of [observer ()] attached (tier 1 compiling every body at its first
   entry) and reports how the run ended and what the analysis observed *)
let hooked = lazy (Wasabi.Instrument.instrument (List.hd (Workloads.Corpus.make ~n:1 ())).module_)

let hooked_run ~tier1 ?wrap_host observer setup =
  let analysis, observed = observer () in
  let inst, _ = Wasabi.Runtime.instantiate ?wrap_host (Lazy.force hooked) analysis in
  setup inst;
  if tier1 then Tier1.enable ~threshold:1 inst;
  let outcome =
    match Interp.invoke_export inst "run" [] with
    | rs -> Ok (String.concat ";" (List.map Value.to_string rs))
    | exception e -> Error (classify_exn e)
  in
  (outcome, observed ())

(* the number of analysis events delivered, every one decoded *)
let events () =
  let events = ref 0 in
  (Wasabi.Analysis.reify (fun (_ : Wasabi.Analysis.event) -> incr events),
   fun () -> string_of_int !events)

(* the instruction mix, whose tier-1 hook sites are counted in groups *)
let mix () =
  let t = Analyses.Instruction_mix.create () in
  (Analyses.Instruction_mix.analysis t, fun () -> Analyses.Instruction_mix.report t)

let outcome_string = function Ok rs -> rs | Error e -> Error.to_string e

let test_faults_fire_on_tier1_sites observer () =
  let fired = ref 0 in
  for index = 0 to 11 do
    let run ~tier1 =
      let plan = Fuzz.Faults.plan ~seed:3 ~index in
      let o, n =
        hooked_run ~tier1 ~wrap_host:(Fuzz.Faults.wrap plan) observer (fun inst ->
          Fuzz.Faults.attach plan inst;
          Fuzz.Faults.arm plan)
      in
      (outcome_string o, n, Fuzz.Faults.injected plan, Fuzz.Faults.describe plan)
    in
    let o0, n0, f0, plan = run ~tier1:false in
    let o1, n1, f1, _ = run ~tier1:true in
    Alcotest.(check string) (plan ^ ": outcome on both tiers") o0 o1;
    Alcotest.(check string) (plan ^ ": events observed") n0 n1;
    Alcotest.(check int) (plan ^ ": faults fired") f0 f1;
    fired := !fired + f1
  done;
  Alcotest.(check bool) "faults fired at tier-1 hook sites" true (!fired > 0)

let test_host_call_budget_tiers observer () =
  List.iter
    (fun budget ->
       let run ~tier1 =
         hooked_run ~tier1 observer (fun inst ->
           let gov = Governor.create ~host_call_budget:budget () in
           Interp.set_governor inst (Some gov);
           Governor.arm gov)
       in
       let name = Printf.sprintf "budget %d" budget in
       let o0, n0 = run ~tier1:false in
       let o1, n1 = run ~tier1:true in
       Alcotest.(check string) (name ^ ": outcome on both tiers") (outcome_string o0)
         (outcome_string o1);
       Alcotest.(check string) (name ^ ": events observed") n0 n1;
       match o1 with
       | Error e ->
         Alcotest.(check string) (name ^ ": code") "host-call-budget" e.Error.code;
         Alcotest.(check int) (name ^ ": exit code") 12 (Error.exit_code e)
       | Ok _ -> Alcotest.failf "%s: the run was not killed" name)
    [ 1; 57; 300 ]

(* ------------------------------------------------------------------ *)
(* The acceptance gate: 2000-case restore-equivalence fault campaign   *)
(* ------------------------------------------------------------------ *)

let test_fault_campaign () =
  let stats, failures = Fuzz.Harness.run ~faults:true ~seed:1 ~gen_count:2000 ~mut_count:0 () in
  (match failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "fault campaign: [%s] at (seed %d, index %d): %s%s" f.Fuzz.Harness.oracle
       f.Fuzz.Harness.seed f.Fuzz.Harness.index f.Fuzz.Harness.detail
       (match f.Fuzz.Harness.fault_plan with None -> "" | Some p -> " under " ^ p));
  Alcotest.(check int) "violations" 0 stats.Fuzz.Harness.violations;
  Alcotest.(check int) "all cases ran the restore-equivalence oracle" 2000
    stats.Fuzz.Harness.faulted


(* ------------------------------------------------------------------ *)
(* Guarded br_if counts: fuel and host-call budgets on both edges      *)
(* ------------------------------------------------------------------ *)

(* [run] counts 3 down in a loop closed by a back-edge [br_if] (taken
   twice, then falling through), then up in a loop left by a [br_if] out
   of its block (falling through three times, then taken); instrumented
   with every hook, so the rewriter guards the end hooks of both *)
let guarded = lazy (
  let module B = Builder in
  let b = B.create () in
  let body =
    [ B.i32 3; B.local_set 0 ]
    @ B.loop [ B.local_get 0; B.i32 1; B.i32_sub; B.local_tee 0; Ast.BrIf 0 ]
    @ B.block
        (B.loop
           [ B.local_get 0; B.i32 3; B.i32_ge_s; Ast.BrIf 1; B.local_get 0; B.i32 1; B.i32_add;
             B.local_set 0; Ast.Br 0 ])
    @ [ B.local_get 0 ]
  in
  let f = B.add_func b ~params:[] ~results:[ Types.I32T ] ~locals:[ Types.I32T ] ~body in
  B.export_func b ~name:"run" f;
  Wasabi.Instrument.instrument (B.build b))

(* one run of [guarded] under the instruction mix: how it ended, the
   steps, the mix report *)
let guarded_run ~tier1 setup =
  let analysis, report = mix () in
  let inst, _ = Wasabi.Runtime.instantiate (Lazy.force guarded) analysis in
  if tier1 then ignore (Tier1.compile_all inst : int);
  setup inst;
  let outcome =
    match Interp.invoke_export inst "run" [] with
    | rs -> String.concat ";" (List.map Value.to_string rs)
    | exception e -> Error.to_string (classify_exn e)
  in
  (outcome, inst.Interp.steps, report ())

let test_guarded_edges_compiled () =
  let analysis, _ = mix () in
  let inst, _ = Wasabi.Runtime.instantiate (Lazy.force guarded) analysis in
  let b = Tier1.analyze inst 0 in
  let bl = Tier1.blocks b in
  let gd = Tier1.guards b bl (Tier1.bind inst b bl) in
  Alcotest.(check int) "both br_ifs guarded" 2
    (Array.fold_left (fun k g -> k + Bool.to_int (Option.is_some g)) 0 gd.at)

let test_guarded_fuel_sweep () =
  let _, steps, _ = guarded_run ~tier1:false ignore in
  for fuel = 1 to steps + 1 do
    let set inst = inst.Interp.fuel <- fuel in
    let o0, s0, m0 = guarded_run ~tier1:false set in
    let o1, s1, m1 = guarded_run ~tier1:true set in
    let name = Printf.sprintf "fuel %d" fuel in
    Alcotest.(check string) (name ^ ": outcome") o0 o1;
    Alcotest.(check int) (name ^ ": steps") s0 s1;
    Alcotest.(check string) (name ^ ": mix") m0 m1
  done

let test_guarded_host_call_budget () =
  (* budgets from 1 up, until one lets the run finish *)
  let rec sweep budget =
    let set inst =
      let gov = Governor.create ~host_call_budget:budget () in
      Interp.set_governor inst (Some gov);
      Governor.arm gov
    in
    let o0, _, m0 = guarded_run ~tier1:false set in
    let o1, _, m1 = guarded_run ~tier1:true set in
    let name = Printf.sprintf "budget %d" budget in
    Alcotest.(check string) (name ^ ": outcome") o0 o1;
    Alcotest.(check string) (name ^ ": mix") m0 m1;
    if Helpers.contains o0 "[host-call-budget]" then sweep (budget + 1) else budget
  in
  Alcotest.(check bool) "kills at every hook call of the run" true (sweep 1 > 20)

let suite =
  [
    case "error codes and exit codes" test_error_codes;
    case "governor deadline" test_deadline;
    case "governor host-call budget" test_host_call_budget;
    case "governor memory-growth cap" test_grow_cap;
    case "snapshot/restore idempotence (150 cases, both tiers)" test_restore_idempotence;
    case "restore observes its histogram" test_restore_metric;
    case "tier-1 deopt on injected fault" test_deopt_on_injected_fault;
    case "tier-1 deopt on governor violation" test_deopt_on_governor_violation;
    case "probed body: deopt on governor kill, restore, clean run"
      test_probed_deopt_on_governor_kill;
    case "fault plan fires at the same hook call on both tiers"
      (test_faults_fire_on_tier1_sites events);
    case "host-call budget kills at the same hook call on both tiers (exit 12)"
      (test_host_call_budget_tiers events);
    case "fault plan determinism" test_fault_plan_determinism;
    case "faulted replay determinism" test_faulted_replay;
    case "restore-equivalence fault campaign (2000 cases)" test_fault_campaign;
    case "fault plan fires at the same hook call on both tiers: instruction mix"
      (test_faults_fire_on_tier1_sites mix);
    case "host-call budget kills at the same hook call on both tiers: instruction mix"
      (test_host_call_budget_tiers mix);
    case "guarded br_if: both loop exits compile guarded" test_guarded_edges_compiled;
    case "guarded br_if: fuel sweep over both edges, same cut on both tiers"
      test_guarded_fuel_sweep;
    case "guarded br_if: host-call budget kills at the same hook call on both tiers"
      test_guarded_host_call_budget;
  ]
