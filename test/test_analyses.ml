(** The eight paper analyses: behavioural tests on small programs with
    known ground truth. *)

open Minic
open Mc_ast
open Mc_ast.Dsl
module W = Wasabi

let case name fn = Alcotest.test_case name `Quick fn

(* [backend] defaults to tier 0; probes attach every group *)
let run_with_analysis ?entry ?(backend = Helpers.T0) m groups analysis =
  let res = W.Instrument.instrument ~groups m in
  ignore (Helpers.run_analysis ?entry backend res analysis : Wasm.Value.t list);
  res

(* a tiny program with known instruction counts: 10-iteration loop *)
let counting_program =
  Mc_compile.compile_checked
    (program
       [ func "run" ~params:[] ~result:TInt ~locals:[ ("k", TInt); ("acc", TInt) ]
           [ "acc" := i 0;
             For ("k", i 0, i 10, [ "acc" := v "acc" + v "k" ]);
             Return (Some (v "acc")) ] ])

let test_instruction_mix () =
  let mix = Analyses.Instruction_mix.create () in
  ignore
    (run_with_analysis counting_program Analyses.Instruction_mix.groups
       (Analyses.Instruction_mix.analysis mix));
  (* the loop body's add executes 10 times, the increment 10 times, and
     the exit comparison 11 times: 10+10 adds, 11 ge_s *)
  Alcotest.(check int) "i32.add" 20 (Analyses.Instruction_mix.count mix "i32.add");
  Alcotest.(check int) "i32.ge_s" 11 (Analyses.Instruction_mix.count mix "i32.ge_s");
  Alcotest.(check int) "return" 1 (Analyses.Instruction_mix.count mix "return");
  Alcotest.(check bool) "total counts everything" true
    (Stdlib.( > ) (Analyses.Instruction_mix.total mix) 100)

let test_basic_block_profiling () =
  let bb = Analyses.Basic_block_profiling.create () in
  ignore
    (run_with_analysis counting_program Analyses.Basic_block_profiling.groups
       (Analyses.Basic_block_profiling.analysis bb));
  (* hottest block is the loop header: once per iteration + exit check *)
  match Analyses.Basic_block_profiling.hottest bb with
  | ((_, kind), n) :: _ ->
    Alcotest.(check string) "hottest is a loop" "loop" (W.Hook.block_kind_name kind);
    Alcotest.(check int) "11 iterations (10 + exit)" 11 n
  | [] -> Alcotest.fail "no blocks recorded"

let test_instruction_coverage () =
  let p =
    Mc_compile.compile_checked
      (program
         [ func "run" ~params:[] ~result:TInt
             [ If (i 1, [ Return (Some (i 10)) ], [ Return (Some (i 20)) ]) ] ])
  in
  let cov = Analyses.Instruction_coverage.create () in
  ignore
    (run_with_analysis p Analyses.Instruction_coverage.groups
       (Analyses.Instruction_coverage.analysis cov));
  let ratio = Analyses.Instruction_coverage.coverage cov p in
  Alcotest.(check bool) "partial coverage: else branch never runs" true
    (Stdlib.( && ) (Stdlib.( > ) ratio 0.3) (Stdlib.( < ) ratio 1.0))

let test_branch_coverage () =
  (* a condition that is always true and one exercised both ways *)
  let p =
    Mc_compile.compile_checked
      (program
         [ func "run" ~params:[] ~result:TInt ~locals:[ ("k", TInt); ("acc", TInt) ]
             [ For ("k", i 0, i 4,
                    [ If (v "k" >= i 0, [ "acc" := v "acc" + i 1 ], []);  (* always true *)
                      If (Binop (Rem, v "k", i 2) = i 0,
                          [ "acc" := v "acc" + i 10 ], [ "acc" := v "acc" - i 1 ]) ]);
               Return (Some (v "acc")) ] ])
  in
  let bc = Analyses.Branch_coverage.create () in
  ignore
    (run_with_analysis p Analyses.Branch_coverage.groups (Analyses.Branch_coverage.analysis bc));
  let one_sided = Analyses.Branch_coverage.partially_covered bc in
  (* the always-true if is one-sided; loop exit br_ifs go both ways *)
  Alcotest.(check bool) "at least one one-sided branch" true (Stdlib.( >= ) (List.length one_sided) 1);
  Alcotest.(check bool) "some branches fully covered" true
    (Stdlib.( > ) (Analyses.Branch_coverage.covered_locations bc) (List.length one_sided))

let test_call_graph () =
  let p =
    Mc_compile.compile_checked
      (program
         ~table:[ "c" ]
         [ func "a" ~params:[] ~result:TInt ~export:false [ Return (Some (Call ("b", []) + i 1)) ];
           func "b" ~params:[] ~result:TInt ~export:false [ Return (Some (i 1)) ];
           func "c" ~params:[] ~result:TInt ~export:false [ Return (Some (i 2)) ];
           func "run" ~params:[] ~result:TInt
             [ Return (Some (Call ("a", []) + CallIndirect (i 0, [], Some TInt))) ] ])
  in
  (* indices by declaration order: a=0 b=1 c=2 run=3 *)
  let cg = Analyses.Call_graph.create () in
  ignore (run_with_analysis p Analyses.Call_graph.groups (Analyses.Call_graph.analysis cg));
  Alcotest.(check bool) "run -> a" true (Analyses.Call_graph.has_edge cg 3 0);
  Alcotest.(check bool) "a -> b" true (Analyses.Call_graph.has_edge cg 0 1);
  Alcotest.(check bool) "run -> c via table" true (Analyses.Call_graph.has_edge cg 3 2);
  Alcotest.(check bool) "no bogus b -> c" false (Analyses.Call_graph.has_edge cg 1 2);
  Alcotest.(check (list int)) "reachable from run" [ 0; 1; 2; 3 ]
    (Analyses.Call_graph.reachable cg [ 3 ]);
  Alcotest.(check (list int)) "reachable from a" [ 0; 1 ]
    (Analyses.Call_graph.reachable cg [ 0 ]);
  let dot = Analyses.Call_graph.to_dot cg in
  Alcotest.(check bool) "dot has dashed indirect edge" true
    (Helpers.contains dot "style=dashed")

let test_cryptominer () =
  let hashy =
    Mc_compile.compile_checked
      (program
         [ func "run" ~params:[] ~result:TInt ~locals:[ ("k", TInt); ("h", TInt) ]
             [ For ("k", i 0, i 50,
                    [ "h" := Binop (BXor, v "h", Binop (Shl, v "h", i 5));
                      "h" := Binop (BAnd, v "h" + v "k", i 0xFFFFFF);
                      "h" := Binop (BXor, v "h", Binop (ShrU, v "h", i 3)) ]);
               Return (Some (v "h")) ] ])
  in
  let det = Analyses.Cryptominer.create () in
  ignore (run_with_analysis hashy Analyses.Cryptominer.groups (Analyses.Cryptominer.analysis det));
  Alcotest.(check bool) "high signature ratio" true
    (Stdlib.( > ) (Analyses.Cryptominer.signature_ratio det) 0.7);
  Alcotest.(check int) "xor counted" 100 (Analyses.Cryptominer.count det "i32.xor")

let test_memory_tracing () =
  let p =
    Mc_compile.compile_checked
      (program
         [ func "run" ~params:[] ~result:TInt ~locals:[ ("k", TInt); ("acc", TInt) ]
             [ For ("k", i 0, i 8, [ istore (i 0) (v "k") (v "k") ]);
               For ("k", i 0, i 4, [ "acc" := v "acc" + iload (i 0) (v "k" * i 2) ]);
               Return (Some (v "acc")) ] ])
  in
  let mt = Analyses.Memory_tracing.create () in
  ignore (run_with_analysis p Analyses.Memory_tracing.groups (Analyses.Memory_tracing.analysis mt));
  Alcotest.(check int) "stores" 8 (Analyses.Memory_tracing.num_stores mt);
  Alcotest.(check int) "loads" 4 (Analyses.Memory_tracing.num_loads mt);
  Alcotest.(check int) "unique addresses" 8 (Analyses.Memory_tracing.unique_addresses mt);
  let trace = Analyses.Memory_tracing.trace mt in
  Alcotest.(check int) "trace in order" 12 (List.length trace);
  match trace with
  | first :: _ ->
    Alcotest.(check bool) "first access is the store of k=0" true
      first.Analyses.Memory_tracing.acc_is_store
  | [] -> Alcotest.fail "empty trace"

(* --- taint ------------------------------------------------------------ *)

let taint_program body =
  (* source=0, sink=1, run=2 *)
  Mc_compile.compile_checked
    (program
       [ func "source" ~params:[] ~result:TInt ~export:false [ Return (Some (i 1234)) ];
         func "sink" ~params:[ ("x", TInt) ] ~export:false [ Expr (v "x" + i 0); ];
         func "run" ~params:[] ~result:TInt
           ~locals:[ ("s", TInt); ("t", TInt) ]
           body ])

let run_taint p =
  let taint = Analyses.Taint.create ~sources:[ 0 ] ~sinks:[ 1 ] () in
  ignore (run_with_analysis p Analyses.Taint.groups (Analyses.Taint.analysis taint));
  taint

let test_taint_direct_flow () =
  let p = taint_program
      [ "s" := Call ("source", []);
        Expr (Call ("sink", [ v "s" ]));
        Return (Some (i 0)) ]
  in
  Alcotest.(check int) "one flow" 1 (Analyses.Taint.num_flows (run_taint p))

let test_taint_through_arithmetic () =
  let p = taint_program
      [ "s" := Call ("source", []);
        "t" := v "s" * i 3 + i 7;
        Expr (Call ("sink", [ v "t" ]));
        Return (Some (i 0)) ]
  in
  Alcotest.(check int) "flow through arithmetic" 1 (Analyses.Taint.num_flows (run_taint p))

let test_taint_through_memory () =
  let p = taint_program
      [ "s" := Call ("source", []);
        istore (i 0) (i 5) (v "s");
        "t" := iload (i 0) (i 5);
        Expr (Call ("sink", [ v "t" ]));
        Return (Some (i 0)) ]
  in
  Alcotest.(check int) "flow through memory" 1 (Analyses.Taint.num_flows (run_taint p))

let test_taint_memory_overwrite_clears () =
  let p = taint_program
      [ "s" := Call ("source", []);
        istore (i 0) (i 5) (v "s");
        istore (i 0) (i 5) (i 99);  (* overwrite with a clean value *)
        "t" := iload (i 0) (i 5);
        Expr (Call ("sink", [ v "t" ]));
        Return (Some (i 0)) ]
  in
  Alcotest.(check int) "overwrite clears the taint" 0 (Analyses.Taint.num_flows (run_taint p))

let test_taint_untainted_ok () =
  let p = taint_program
      [ "s" := Call ("source", []);
        "t" := i 5 * i 8;
        Expr (Call ("sink", [ v "t" ]));
        Return (Some (v "s")) ]
  in
  Alcotest.(check int) "no false positive" 0 (Analyses.Taint.num_flows (run_taint p))

let test_taint_through_call () =
  (* the taint survives a round trip through a helper function *)
  let p =
    Mc_compile.compile_checked
      (program
         [ func "source" ~params:[] ~result:TInt ~export:false [ Return (Some (i 1)) ];
           func "sink" ~params:[ ("x", TInt) ] ~export:false [ Expr (v "x" + i 0) ];
           func "id" ~params:[ ("x", TInt) ] ~result:TInt ~export:false
             [ Return (Some (v "x" + i 0)) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("s", TInt) ]
             [ "s" := Call ("id", [ Call ("source", []) ]);
               Expr (Call ("sink", [ v "s" ]));
               Return (Some (i 0)) ] ])
  in
  let taint = Analyses.Taint.create ~sources:[ 0 ] ~sinks:[ 1 ] () in
  ignore (run_with_analysis p Analyses.Taint.groups (Analyses.Taint.analysis taint));
  Alcotest.(check int) "flow through callee" 1 (Analyses.Taint.num_flows taint)

let test_taint_through_select_and_global () =
  let p =
    Mc_compile.compile_checked
      (program
         ~globals:[ ("g", TInt, Int 0l) ]
         [ func "source" ~params:[] ~result:TInt ~export:false [ Return (Some (i 1)) ];
           func "sink" ~params:[ ("x", TInt) ] ~export:false [ Expr (v "x" + i 0) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("s", TInt) ]
             [ "s" := Call ("source", []);
               SetGlobal ("g", Select (i 1, v "s", i 0));
               Expr (Call ("sink", [ Global "g" ]));
               Return (Some (i 0)) ] ])
  in
  let taint = Analyses.Taint.create ~sources:[ 0 ] ~sinks:[ 1 ] () in
  ignore (run_with_analysis p Analyses.Taint.groups (Analyses.Taint.analysis taint));
  Alcotest.(check int) "flow through select and global" 1 (Analyses.Taint.num_flows taint)

let test_taint_manual_memory () =
  (* taint a memory region by hand, as for an untrusted network buffer *)
  let p =
    Mc_compile.compile_checked
      (program
         [ func "sink" ~params:[ ("x", TInt) ] ~export:false [ Expr (v "x" + i 0) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("t", TInt) ]
             [ "t" := iload (i 0) (i 8);
               Expr (Call ("sink", [ v "t" ]));
               Return (Some (i 0)) ] ])
  in
  let taint = Analyses.Taint.create ~sinks:[ 0 ] () in
  ignore (Analyses.Taint.taint_memory taint ~addr:32 ~len:4);
  ignore (run_with_analysis p Analyses.Taint.groups (Analyses.Taint.analysis taint));
  Alcotest.(check int) "byte 32 is tainted" 1
    (Analyses.Taint.Int_set.cardinal (Analyses.Taint.memory_taint_at taint 32));
  Alcotest.(check int) "flow from tainted buffer at addr 32? (load was at 32..35? no: 32+len)" 1
    (Analyses.Taint.num_flows taint)

(* --- provenance --------------------------------------------------------- *)

let test_provenance_const_origin () =
  (* probe=0, run=1: the probed value originates at its two constants *)
  let p =
    Mc_compile.compile_checked
      (program
         [ func "probe" ~params:[ ("x", TInt) ] ~export:false [ Expr (v "x" + i 0) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("a", TInt) ]
             [ "a" := i 40 + i 2;
               Expr (Call ("probe", [ v "a" ]));
               Return (Some (v "a")) ] ])
  in
  let prov = Analyses.Provenance.create ~probes:[ 0 ] () in
  ignore (run_with_analysis p Analyses.Provenance.groups (Analyses.Provenance.analysis prov));
  match Analyses.Provenance.probes prov with
  | [ probe ] ->
    (* both constant sites contribute to the sum's origin set *)
    Alcotest.(check int) "two origins" 2
      (Wasabi.Location.Set.cardinal probe.Analyses.Provenance.probe_origins)
  | ps -> Alcotest.failf "expected 1 probe, got %d" (List.length ps)

let test_provenance_through_memory () =
  let p =
    Mc_compile.compile_checked
      (program
         [ func "probe" ~params:[ ("x", TInt) ] ~export:false [ Expr (v "x" + i 0) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("t", TInt) ]
             [ istore (i 0) (i 3) (i 77);
               "t" := iload (i 0) (i 3);
               Expr (Call ("probe", [ v "t" ]));
               Return (Some (v "t")) ] ])
  in
  let prov = Analyses.Provenance.create ~probes:[ 0 ] () in
  ignore (run_with_analysis p Analyses.Provenance.groups (Analyses.Provenance.analysis prov));
  match Analyses.Provenance.probes prov with
  | [ probe ] ->
    (* the origin survives the store/load round trip: it is the const 77's
       location (possibly joined with address-constant sites) *)
    Alcotest.(check bool) "has an origin" false
      (Wasabi.Location.Set.is_empty probe.Analyses.Provenance.probe_origins)
  | ps -> Alcotest.failf "expected 1 probe, got %d" (List.length ps)

let test_analysis_combine () =
  let mix = Analyses.Instruction_mix.create () in
  let cg = Analyses.Call_graph.create () in
  let combined =
    W.Analysis.combine (Analyses.Instruction_mix.analysis mix) (Analyses.Call_graph.analysis cg)
  in
  let p =
    Mc_compile.compile_checked
      (program
         [ func "helper" ~params:[] ~result:TInt ~export:false [ Return (Some (i 2)) ];
           func "run" ~params:[] ~result:TInt [ Return (Some (Call ("helper", []) * i 2)) ] ])
  in
  ignore (run_with_analysis p W.Hook.all combined);
  Alcotest.(check bool) "mix sees instructions" true (Stdlib.( > ) (Analyses.Instruction_mix.total mix) 0);
  Alcotest.(check int) "call graph sees the call" 1 (Analyses.Call_graph.num_edges cg)

(* a site-bound analysis (instruction mix, basic blocks) and a per-event
   one (trace) in every order, and two site-bound ones: on the backends
   that count sites, each side reports what the same composition
   reports on tier 0, where every event is decoded *)
let test_combine_counted () =
  let p =
    Mc_compile.compile_checked
      (program
         [ func "helper" ~params:[ ("x", TInt) ] ~result:TInt ~export:false
             [ Return (Some (v "x" * i 3)) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("k", TInt); ("acc", TInt) ]
             [ For ("k", i 0, i 5, [ "acc" := v "acc" + Call ("helper", [ v "k" ]) ]);
               Return (Some (v "acc")) ] ])
  in
  let reports pick backend =
    let mix = Analyses.Instruction_mix.create () in
    let bb = Analyses.Basic_block_profiling.create () in
    let tr = Analyses.Trace.create () in
    let a, b =
      pick
        ( Analyses.Instruction_mix.analysis mix,
          Analyses.Basic_block_profiling.analysis bb,
          Analyses.Trace.analysis tr )
    in
    ignore (run_with_analysis ~backend p W.Hook.all (W.Analysis.combine a b));
    String.concat "\n"
      [ Analyses.Instruction_mix.report mix;
        Analyses.Basic_block_profiling.report ~limit:max_int bb;
        Analyses.Trace.to_log tr ]
  in
  List.iter
    (fun (name, pick) ->
       let expected = reports pick Helpers.T0 in
       List.iter
         (fun backend ->
            Alcotest.(check string)
              (Printf.sprintf "%s (%s)" name (Helpers.backend_name backend))
              expected (reports pick backend))
         [ Helpers.T1; T1_profiled; Probes ])
    [ ("mix, trace", fun (m, _, t) -> (m, t));
      ("trace, mix", fun (m, _, t) -> (t, m));
      ("mix, blocks", fun (m, b, _) -> (m, b)) ]

(* tier 1 binds, and probes build, the sites of code that never runs (an
   exported function nobody calls, a branch never taken): their counter
   cells stay out of the reports *)
let test_unrun_sites_unreported () =
  let p =
    Mc_compile.compile_checked
      (program
         [ func "cold" ~params:[] ~result:TInt ~locals:[ ("k", TInt) ]
             [ For ("k", i 0, i 3, []); Return (Some (v "k" * i 7)) ];
           func "run" ~params:[] ~result:TInt ~locals:[ ("r", TInt) ]
             [ If (v "r" > i 100, [ "r" := v "r" * i 3 ], []);
               Return (Some (v "r")) ] ])
  in
  let bound0, _ = Wasm.Tier1.hook_sites () in
  List.iter
    (fun backend ->
       let name = Helpers.backend_name backend in
       let mix = Analyses.Instruction_mix.create () in
       let bb = Analyses.Basic_block_profiling.create () in
       ignore
         (run_with_analysis ~backend p W.Hook.all
            (W.Analysis.combine (Analyses.Instruction_mix.analysis mix)
               (Analyses.Basic_block_profiling.analysis bb)));
       Alcotest.(check int) (name ^ ": i32.mul never ran") 0
         (Analyses.Instruction_mix.count mix "i32.mul");
       Alcotest.(check (list string)) (name ^ ": no unrun kinds listed") []
         (List.filter_map
            (fun (k, n) -> if Stdlib.(n <= 0 || k = "i32.mul") then Some k else None)
            (Analyses.Instruction_mix.sorted mix));
       Alcotest.(check bool) (name ^ ": no loop listed") false
         (List.exists
            (fun ((_, kind), _) -> Stdlib.(kind = W.Hook.Bloop))
            (Analyses.Basic_block_profiling.hottest bb));
       Alcotest.(check bool) (name ^ ": no unrun block listed") true
         (List.for_all (fun (_, n) -> Stdlib.(n > 0)) (Analyses.Basic_block_profiling.hottest bb)))
    [ Helpers.T0; T1; Probes ];
  let bound1, _ = Wasm.Tier1.hook_sites () in
  Alcotest.(check bool) "tier 1 bound the unrun sites" true Stdlib.(bound1 > bound0)

(* equal counts are listed by key, whatever else the table holds: here
   200 zero cells of bound sites that never ran *)
let test_tie_order () =
  let l = W.Location.make ~func:0 ~instr:0 in
  let x = Wasm.Value.I32 0l in
  let ops = [ "local.get"; "i32.add"; "f64.add"; "i32.mul"; "br_if"; "i32.sub" ] in
  let mix ~unrun =
    let t = Analyses.Instruction_mix.create () in
    let a = Analyses.Instruction_mix.analysis t in
    for k = 1 to unrun do
      let op = Printf.sprintf "op%d" k in
      ignore (a.W.Analysis.site { spec = W.Hook.S_unary (op, I32T, I32T); loc = l; callee = None })
    done;
    List.iter (fun op -> a.W.Analysis.unary l op x x) ops;
    Analyses.Instruction_mix.sorted t
  in
  let by_key = List.map (fun op -> (op, 1)) (List.sort String.compare ops) in
  Alcotest.(check (list (pair string int))) "ties by key" by_key (mix ~unrun:0);
  Alcotest.(check (list (pair string int))) "ties by key, with unrun cells" by_key
    (mix ~unrun:200);
  let bb = Analyses.Basic_block_profiling.create () in
  let a = Analyses.Basic_block_profiling.analysis bb in
  let locs = List.map (fun i -> W.Location.make ~func:(i mod 3) ~instr:Stdlib.(7 - i)) [ 0; 1; 2; 3; 4 ] in
  List.iter (fun l -> a.W.Analysis.begin_ l W.Hook.Bblock) locs;
  Alcotest.(check (list string)) "blocks tied by location"
    (List.map W.Location.to_string (List.sort W.Location.compare locs))
    (List.map (fun ((l, _), _) -> W.Location.to_string l)
       (Analyses.Basic_block_profiling.hottest bb))

(* with a profiler attached, a site the instruction mix counts binds the
   full timed decode, so the profile keeps its per-group timers and its
   decode/analysis split. Attaching re-tiers the instance, so the order
   does not matter: before [compile_all], after it (the serve worker's
   order), or attached for one run and detached for the next, when the
   sites rebind to their counters and the profile stops growing. *)
type attach_order = Before_compile | After_compile | Detach_after_run

let test_profiled_counted_sites order () =
  let res = W.Instrument.instrument counting_program in
  let mix = Analyses.Instruction_mix.create () in
  let inst, rt = W.Runtime.instantiate res (Analyses.Instruction_mix.analysis mix) in
  let prof = Obs.Profile.create () in
  let attach () = W.Runtime.attach_profiler rt (Some prof) in
  let compile () = ignore (Wasm.Tier1.compile_all inst : int) in
  let run () = ignore (Wasm.Interp.invoke_export inst "run" []) in
  (match order with
   | Before_compile | Detach_after_run -> attach (); compile ()
   | After_compile -> compile (); attach ());
  run ();
  let events key =
    List.fold_left
      (fun n (k, e, _) -> if String.equal k key then e else n)
      0 (Obs.Profile.timer_list prof)
  in
  let total = Analyses.Instruction_mix.total mix in
  Alcotest.(check int) "every event timed" total (events "dispatch.analysis");
  Alcotest.(check int) "decode split kept" total (events "dispatch.decode");
  Alcotest.(check int) "binary group timed"
    Stdlib.(Analyses.Instruction_mix.count mix "i32.add"
            + Analyses.Instruction_mix.count mix "i32.ge_s")
    (events "hook.binary");
  match order with
  | Before_compile | After_compile -> ()
  | Detach_after_run ->
    W.Runtime.attach_profiler rt None;
    run ();
    Alcotest.(check int) "detached: no event timed" total (events "dispatch.analysis");
    Alcotest.(check int) "detached: no event decoded" total (events "dispatch.decode");
    Alcotest.(check int) "detached: the mix keeps counting" Stdlib.(2 * total)
      (Analyses.Instruction_mix.total mix)

let suite =
  [
    case "instruction mix counts" test_instruction_mix;
    case "basic block profile" test_basic_block_profiling;
    case "instruction coverage" test_instruction_coverage;
    case "branch coverage" test_branch_coverage;
    case "call graph" test_call_graph;
    case "cryptominer signature" test_cryptominer;
    case "memory tracing" test_memory_tracing;
    case "taint: direct flow" test_taint_direct_flow;
    case "taint: through arithmetic" test_taint_through_arithmetic;
    case "taint: through memory (shadowing)" test_taint_through_memory;
    case "taint: overwrite clears" test_taint_memory_overwrite_clears;
    case "taint: no false positives" test_taint_untainted_ok;
    case "taint: through calls" test_taint_through_call;
    case "taint: select + global" test_taint_through_select_and_global;
    case "taint: manual memory tainting" test_taint_manual_memory;
    case "provenance: constant origins" test_provenance_const_origin;
    case "provenance: through memory" test_provenance_through_memory;
    case "analysis composition" test_analysis_combine;
    case "composition: counters with per-event callbacks" test_combine_counted;
    case "never-run sites stay out of reports" test_unrun_sites_unreported;
    case "report order: ties by key" test_tie_order;
    case "profiled tier 1 decodes counted sites" (test_profiled_counted_sites Before_compile);
    case "profiled tier 1: attach after compile_all" (test_profiled_counted_sites After_compile);
    case "profiled tier 1: detach stops the profile" (test_profiled_counted_sites Detach_after_run);
  ]
