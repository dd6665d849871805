(** The [wasabi] command-line tool: instrument a WebAssembly binary on
    disk, selecting hooks as the original tool does, and optionally run an
    exported function under one of the bundled analyses.

      wasabi instrument input.wasm -o output.wasm --hooks binary,call
      wasabi analyze input.wasm --analysis cryptominer --invoke run
      wasabi callgraph input.wasm --dot -o input.dot
      wasabi lint input.wasm --selective
      wasabi fuzz --seed 42 --gen 2000 --mut 2000
      wasabi hooks

    Structured pipeline failures exit with distinct codes and a one-line
    message (decode 3, validate 4, link 5, trap 6, exhaustion 7) instead
    of an uncaught-exception backtrace; lint soundness errors exit 8, and
    hook-dispatch argument errors (a bug in the instrumentation, not the
    input program) exit 9.
*)

open Cmdliner
module W = Wasabi

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let read_module path = Wasm.Decode.decode (read_file path)
let write_module path m = write_file path (Wasm.Encode.encode m)

(** Run a subcommand body under the structured-error boundary: taxonomy
    failures become one-line messages with their distinct exit code. *)
let structured f =
  try f () with
  | e ->
    (match Wasm.Error.classify e with
     | Some err ->
       Printf.eprintf "wasabi: %s\n" (Wasm.Error.to_string err);
       exit (Wasm.Error.exit_code err)
     | None -> raise e)

let parse_groups = function
  | None | Some "all" -> W.Hook.all
  | Some s ->
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.map W.Hook.group_of_name
    |> W.Hook.of_list

let hooks_arg =
  let doc = "Comma-separated hook groups to instrument (default: all). See $(b,wasabi hooks)." in
  Arg.(value & opt (some string) None & info [ "hooks" ] ~docv:"GROUPS" ~doc)

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.wasm" ~doc:"Input binary")

let tier_arg =
  let doc =
    "Tier-up threshold for the closure-compiled execution tier: a function is \
     compiled to closures after $(docv) interpreted entries. 0 or no $(b,--tier) \
     runs tier 0 only."
  in
  Arg.(value & opt (some int) None & info [ "tier" ] ~docv:"N" ~doc)

(** Apply the tier policy requested by [--tier] to a fresh instance. *)
let apply_tier tier inst =
  match tier with
  | None | Some 0 -> ()
  | Some n -> Wasm.Tier1.enable ~threshold:n inst

(* resource-governor flags: per-run budgets beyond fuel, each violation
   exiting with its own code (deadline 10, growth cap 11, call budget 12) *)
let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-run wall-clock deadline in milliseconds, checked at fuel-batch \
                 boundaries (exit code 10 when exceeded)")

let max_grow_arg =
  Arg.(value & opt (some int) None
       & info [ "max-grow-pages" ] ~docv:"PAGES"
           ~doc:"Per-run memory-growth cap: total pages memory.grow may acquire, on top of \
                 the module's declared maximum (exit code 11 when exceeded)")

let host_call_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "host-call-budget" ] ~docv:"N"
           ~doc:"Per-run host-call budget, counting analysis hook calls and imported host \
                 functions (exit code 12 when exceeded)")

(** Attach and arm a governor when any budget flag is set; compiled
    bodies then also deopt to tier 0 on a governor kill. *)
let apply_governor ~deadline_ms ~max_grow_pages ~host_call_budget inst =
  match deadline_ms, max_grow_pages, host_call_budget with
  | None, None, None -> ()
  | _ ->
    let gov = Wasm.Governor.create ?deadline_ms ?max_grow_pages ?host_call_budget () in
    Wasm.Interp.set_governor inst (Some gov);
    Wasm.Interp.set_deopt_on_fault inst true;
    Wasm.Governor.arm gov

(* --- instrument ------------------------------------------------------ *)

let instrument_cmd =
  let output =
    Arg.(value & opt string "out.wasm" & info [ "o"; "output" ] ~docv:"OUTPUT" ~doc:"Output path")
  in
  let selective =
    Arg.(value & flag
         & info [ "selective" ]
             ~doc:"Leave functions unreachable from any export/start root uninstrumented \
                   (static call-graph pruning; skipped indices are recorded in the metadata)")
  in
  let fold =
    Arg.(value & flag
         & info [ "fold" ]
             ~doc:"Discharge hook sites statically from abstract-interpretation facts: \
                   drop hooks at proven-unreachable sites and pass proven-constant hook \
                   arguments as immediates (folded sites are recorded in the metadata)")
  in
  let run input output hooks selective fold =
    structured @@ fun () ->
    let m = read_module input in
    Wasm.Validate.validate_module m;
    let groups = parse_groups hooks in
    let t0 = Sys.time () in
    let res = W.Instrument.instrument ~groups ~prune_unreachable:selective ~fold m in
    let dt = Sys.time () -. t0 in
    write_module output res.W.Instrument.instrumented;
    let meta = res.W.Instrument.metadata in
    Printf.printf "instrumented %s -> %s in %.1f ms\n" input output (dt *. 1000.0);
    Printf.printf "  %d low-level hooks generated on demand (import module %S)\n"
      meta.W.Metadata.num_hooks W.Hook.import_module;
    (match meta.W.Metadata.pruned_funcs with
     | [] -> ()
     | pruned ->
       Printf.printf "  %d statically-unreachable function%s left uninstrumented\n"
         (List.length pruned)
         (if List.length pruned = 1 then "" else "s"));
    (match meta.W.Metadata.folded with
     | [] -> ()
     | folded ->
       let dead, args =
         List.partition (function W.Metadata.F_dead _ -> true | _ -> false) folded
       in
       Printf.printf "  %d hook site%s discharged statically (%d dead, %d constant-args)\n"
         (List.length folded)
         (if List.length folded = 1 then "" else "s")
         (List.length dead) (List.length args));
    Printf.printf "  original %d B, instrumented %d B\n"
      (String.length (Wasm.Encode.encode m))
      (String.length (Wasm.Encode.encode res.W.Instrument.instrumented))
  in
  let info = Cmd.info "instrument" ~doc:"Insert analysis hook calls into a Wasm binary" in
  Cmd.v info Term.(const run $ input_arg $ output $ hooks_arg $ selective $ fold)

(* --- analyze --------------------------------------------------------- *)

type packaged_analysis =
  | Packaged : {
      groups : W.Hook.Group_set.t;
      state : 'st;
      analysis : 'st -> W.Analysis.t;
      report : 'st -> string;
    } -> packaged_analysis

let bundled_analyses () =
  [ ("instruction-mix",
     Packaged { groups = Analyses.Instruction_mix.groups;
                state = Analyses.Instruction_mix.create ();
                analysis = Analyses.Instruction_mix.analysis;
                report = Analyses.Instruction_mix.report });
    ("basic-blocks",
     Packaged { groups = Analyses.Basic_block_profiling.groups;
                state = Analyses.Basic_block_profiling.create ();
                analysis = Analyses.Basic_block_profiling.analysis;
                report = Analyses.Basic_block_profiling.report ~limit:10 });
    ("coverage",
     Packaged { groups = Analyses.Branch_coverage.groups;
                state = Analyses.Branch_coverage.create ();
                analysis = Analyses.Branch_coverage.analysis;
                report = Analyses.Branch_coverage.report });
    ("call-graph",
     Packaged { groups = Analyses.Call_graph.groups;
                state = Analyses.Call_graph.create ();
                analysis = Analyses.Call_graph.analysis;
                report = Analyses.Call_graph.to_dot ?name:None });
    ("cryptominer",
     Packaged { groups = Analyses.Cryptominer.groups;
                state = Analyses.Cryptominer.create ();
                analysis = Analyses.Cryptominer.analysis;
                report = Analyses.Cryptominer.report });
    ("memory-trace",
     Packaged { groups = Analyses.Memory_tracing.groups;
                state = Analyses.Memory_tracing.create ();
                analysis = Analyses.Memory_tracing.analysis;
                report = Analyses.Memory_tracing.report });
    ("taint",
     Packaged { groups = Analyses.Taint.groups;
                state = Analyses.Taint.create ();
                analysis = Analyses.Taint.analysis;
                report = Analyses.Taint.report });
    ("trace",
     Packaged { groups = Analyses.Trace.groups;
                state = Analyses.Trace.create ();
                analysis = Analyses.Trace.analysis;
                report = (fun t -> Analyses.Trace.report t ^ Analyses.Trace.to_log t ^ "\n") }) ]

let analyze_cmd =
  let analysis_arg =
    let doc = "Bundled analysis to run (instruction-mix, basic-blocks, coverage, call-graph, cryptominer, memory-trace, taint)" in
    Arg.(value & opt string "instruction-mix" & info [ "analysis" ] ~docv:"NAME" ~doc)
  in
  let invoke_arg =
    Arg.(value & opt string "run" & info [ "invoke" ] ~docv:"EXPORT" ~doc:"Exported function to call")
  in
  let run input analysis_name invoke tier deadline_ms max_grow_pages host_call_budget =
    structured @@ fun () ->
    let m = read_module input in
    Wasm.Validate.validate_module m;
    match List.assoc_opt analysis_name (bundled_analyses ()) with
    | None ->
      Printf.eprintf "unknown analysis %S\n" analysis_name;
      exit 2
    | Some (Packaged a) ->
      let res = W.Instrument.instrument ~groups:a.groups m in
      let inst, _ = W.Runtime.instantiate res (a.analysis a.state) in
      apply_tier tier inst;
      apply_governor ~deadline_ms ~max_grow_pages ~host_call_budget inst;
      let results = Wasm.Interp.invoke_export inst invoke [] in
      Printf.printf "%s returned [%s]\n" invoke
        (String.concat "; " (List.map Wasm.Value.to_string results));
      print_string (a.report a.state)
  in
  let info = Cmd.info "analyze" ~doc:"Instrument, run, and report a bundled dynamic analysis" in
  Cmd.v info
    Term.(const run $ input_arg $ analysis_arg $ invoke_arg $ tier_arg $ deadline_arg
          $ max_grow_arg $ host_call_budget_arg)

(* --- generate-js ------------------------------------------------------ *)

let generate_js_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUTPUT.js"
           ~doc:"Output path (default: INPUT.wasabi.js)")
  in
  let run input output hooks =
    structured @@ fun () ->
    let m = read_module input in
    Wasm.Validate.validate_module m;
    let groups = parse_groups hooks in
    let res = W.Instrument.instrument ~groups m in
    let js = W.Js_codegen.generate res in
    let out_wasm = Filename.remove_extension input ^ ".instrumented.wasm" in
    let out_js =
      match output with
      | Some o -> o
      | None -> Filename.remove_extension input ^ ".wasabi.js"
    in
    write_module out_wasm res.W.Instrument.instrumented;
    write_file out_js js;
    Printf.printf "wrote %s and %s\n" out_wasm out_js;
    Printf.printf "load the instrumented binary with importObject {%S: Wasabi.lowlevelHooks}\n"
      W.Hook.import_module
  in
  let info =
    Cmd.info "generate-js"
      ~doc:"Instrument a binary and emit the companion JavaScript runtime for browser hosts"
  in
  Cmd.v info Term.(const run $ input_arg $ output $ hooks_arg)

(* --- hooks ----------------------------------------------------------- *)

(** Monomorphization-cache statistics of one instrumentation run: the
    generated hooks with their signatures and request counts, and the
    hit/miss summary of the on-demand cache (paper, Section 2.4.3). *)
let print_hook_stats (hook_map : W.Hook.Map.t) =
  let requests = W.Hook.Map.requests hook_map in
  Printf.printf "%-12s %-28s %-28s %9s\n" "group" "hook" "signature" "requests";
  Array.iter
    (fun (spec, reqs) ->
       Printf.printf "%-12s %-28s %-28s %9d\n"
         (W.Hook.group_name (W.Hook.group_of_spec spec))
         (W.Hook.name spec)
         (Wasm.Types.string_of_func_type (W.Hook.signature spec))
         reqs)
    requests;
  let total = W.Hook.Map.total_requests hook_map in
  Printf.printf
    "monomorphization cache: %d hooks generated for %d requests (%d hits, %d misses, %.1f%% hit rate)\n"
    (W.Hook.Map.count hook_map) total (W.Hook.Map.hits hook_map) (W.Hook.Map.misses hook_map)
    (if total = 0 then 0.0 else 100.0 *. Float.of_int (W.Hook.Map.hits hook_map) /. Float.of_int total)

let hooks_cmd =
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Instrument INPUT (or the built-in corpus when no input is given) and \
                   print monomorphization-cache statistics: generated hooks by kind and \
                   type signature, request counts, hit/miss totals")
  in
  let input_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.wasm" ~doc:"Input binary for --stats")
  in
  let run stats input hooks =
    structured @@ fun () ->
    if not stats then begin
      print_endline "hook groups (selective instrumentation units):";
      List.iter (fun g -> Printf.printf "  %s\n" (W.Hook.group_name g)) W.Hook.all_groups
    end
    else begin
      let groups = parse_groups hooks in
      let modules =
        match input with
        | Some path -> [ (path, read_module path) ]
        | None ->
          List.map
            (fun (e : Workloads.Corpus.entry) -> (e.name, e.module_))
            (Workloads.Corpus.make ())
      in
      List.iteri
        (fun i (label, m) ->
           if i > 0 then print_newline ();
           Printf.printf "== %s ==\n" label;
           Wasm.Validate.validate_module m;
           let res = W.Instrument.instrument ~groups m in
           print_hook_stats res.W.Instrument.hook_map)
        modules
    end
  in
  let info =
    Cmd.info "hooks"
      ~doc:"List the available hook groups, or (with --stats) print \
            monomorphization-cache statistics for an instrumentation run"
  in
  Cmd.v info Term.(const run $ stats_arg $ input_opt $ hooks_arg)

(* --- callgraph ------------------------------------------------------- *)

let callgraph_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT instead of the text rendering")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout")
  in
  let no_tighten_arg =
    Arg.(value & flag
         & info [ "no-tighten" ]
             ~doc:"Skip the constant-stack analysis that resolves constant-index indirect \
                   calls exactly (faster, coarser)")
  in
  let precise_arg =
    Arg.(value & flag
         & info [ "precise" ]
             ~doc:"Resolve indirect edges with the interprocedural abstract interpreter \
                   (value-set table indices) instead of type pools")
  in
  let run input dot out no_tighten precise =
    structured @@ fun () ->
    let m = read_module input in
    Wasm.Validate.validate_module m;
    let cg = Static.Callgraph.build ~tighten:(not no_tighten) ~precise m in
    let text =
      if dot then Static.Callgraph.to_dot cg
      else begin
        let name i =
          match Static.Callgraph.func_name cg i with
          | Some n -> Printf.sprintf "f%d (%s)" i n
          | None -> Printf.sprintf "f%d" i
        in
        let indirect = Static.Callgraph.indirect_edges cg in
        let edge_lines =
          List.map
            (fun (a, b) ->
               Printf.sprintf "  %s -> %s%s" (name a) (name b)
                 (if List.mem (a, b) indirect then "  [indirect]" else ""))
            (Static.Callgraph.edges cg)
        in
        let dead_line =
          match Static.Callgraph.dead_functions cg with
          | [] -> []
          | dead -> [ "unreachable: " ^ String.concat ", " (List.map name dead) ]
        in
        String.concat "\n" ((Static.Callgraph.summary cg :: edge_lines) @ dead_line) ^ "\n"
      end
    in
    match out with
    | Some path ->
      write_file path text;
      Printf.printf "wrote %s\n" path
    | None -> print_string text
  in
  let info =
    Cmd.info "callgraph"
      ~doc:"Static call graph: direct and type/table-resolved indirect edges, export-rooted \
            reachability, unreachable-function report"
  in
  Cmd.v info Term.(const run $ input_arg $ dot_arg $ out_arg $ no_tighten_arg $ precise_arg)

(* --- absint ----------------------------------------------------------- *)

let absint_cmd =
  let summary_arg =
    Arg.(value & flag & info [ "summary" ] ~doc:"Print only the one-line module summary")
  in
  let func_arg =
    Arg.(value & opt (some int) None
         & info [ "func" ] ~docv:"N" ~doc:"Dump facts for function N only")
  in
  let stacks_arg =
    Arg.(value & flag
         & info [ "stacks" ] ~doc:"Include the per-instruction abstract stack in the dump")
  in
  let dot_arg =
    Arg.(value & flag
         & info [ "dot" ] ~doc:"Emit the precise call graph as GraphViz DOT instead of facts")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout")
  in
  let corpus_arg =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"Analyze every workload of the built-in benchmark corpus (one summary \
                   line each) instead of a file")
  in
  let run input summary func stacks dot out corpus =
    structured @@ fun () ->
    if corpus then begin
      List.iter
        (fun (e : Workloads.Corpus.entry) ->
           let fx = Static.Absint.analyze e.module_ in
           Printf.printf "%-16s %s\n" e.name (Static.Absint.summary fx))
        (Workloads.Corpus.make ());
      exit 0
    end;
    let m =
      match input with
      | Some path -> read_module path
      | None ->
        Printf.eprintf "wasabi absint: need INPUT.wasm or --corpus\n";
        exit 2
    in
    Wasm.Validate.validate_module m;
    let text =
      if dot then Static.Callgraph.to_dot (Static.Callgraph.build ~precise:true m)
      else begin
        let fx = Static.Absint.analyze m in
        if summary then Static.Absint.summary fx ^ "\n"
        else begin
          let buf = Buffer.create 1024 in
          Buffer.add_string buf (Static.Absint.summary fx);
          Buffer.add_char buf '\n';
          let n_globals =
            Wasm.Ast.num_imported_globals m + List.length m.Wasm.Ast.globals
          in
          if n_globals > 0 then begin
            Buffer.add_string buf "globals:";
            for g = 0 to n_globals - 1 do
              Buffer.add_string buf
                (Printf.sprintf " g%d=%s" g
                   (Static.Interval.to_string (Static.Absint.global_fact fx g)))
            done;
            Buffer.add_char buf '\n'
          end;
          let dump f = Buffer.add_string buf (Static.Absint.dump_func ~stacks fx f) in
          (match func with
           | Some f -> dump f
           | None ->
             let n_imp = Wasm.Ast.num_imported_funcs m in
             for f = n_imp to Wasm.Ast.num_funcs m - 1 do
               dump f
             done);
          Buffer.contents buf
        end
      end
    in
    match out with
    | Some path ->
      write_file path text;
      Printf.printf "wrote %s\n" path
    | None -> print_string text
  in
  let info =
    Cmd.info "absint"
      ~doc:"Whole-module abstract interpretation: per-function value-set facts (parameter \
            and result summaries, global cells, resolved indirect-call target sets, dead \
            code), or (--dot) the precise call graph"
  in
  let input_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.wasm" ~doc:"Input binary")
  in
  Cmd.v info
    Term.(const run $ input_opt $ summary_arg $ func_arg $ stacks_arg $ dot_arg $ out_arg
          $ corpus_arg)

(* --- lint ------------------------------------------------------------ *)

(** Distinct from the taxonomy codes (3..7): the pipeline succeeded but
    the instrumented module failed soundness verification. *)
let lint_exit_code = 8

let lint_cmd =
  let input_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.wasm" ~doc:"Input binary")
  in
  let selective_arg =
    Arg.(value & flag
         & info [ "selective" ] ~doc:"Instrument with static call-graph pruning before linting")
  in
  let fold_arg =
    Arg.(value & flag
         & info [ "fold" ]
             ~doc:"Instrument with static hook folding before linting (folded sites are \
                   verified against recomputed abstract-interpretation facts)")
  in
  let corpus_arg =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"Lint every workload of the built-in benchmark corpus instead of a file")
  in
  let fuzz_arg =
    Arg.(value & opt (some int) None
         & info [ "fuzz" ] ~docv:"N"
             ~doc:"Lint N fixed-seed generated modules (full and pruned instrumentation) \
                   instead of a file")
  in
  let seed_arg =
    Arg.(value & opt int Fuzz.Harness.default_seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for --fuzz module generation")
  in
  let run input hooks selective fold corpus fuzz seed =
    structured @@ fun () ->
    let groups = parse_groups hooks in
    let errors = ref 0 in
    let lint_one label m =
      Wasm.Validate.validate_module m;
      let res = W.Instrument.instrument ~groups ~prune_unreachable:selective ~fold m in
      match Lint.check res with
      | [] -> Printf.printf "%s: clean\n" label
      | findings ->
        List.iter (fun f -> Printf.printf "%s: %s\n" label (Lint.to_string f)) findings;
        errors := !errors + List.length (Lint.errors findings)
    in
    (match corpus, fuzz, input with
     | true, _, _ ->
       List.iter
         (fun (e : Workloads.Corpus.entry) -> lint_one e.name e.module_)
         (Workloads.Corpus.make ())
     | false, Some n, _ ->
       for index = 0 to n - 1 do
         let info = Fuzz.Harness.gen_case ~seed ~index in
         (match Fuzz.Oracle.lint_instrumented info.Fuzz.Gen.module_ with
          | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> ()
          | Fuzz.Oracle.Violation { kind; detail } ->
            incr errors;
            Printf.printf "gen case %d (seed %d): [%s] %s\n" index seed kind detail);
         if (index + 1) mod 500 = 0 then Printf.eprintf "lint: %d/%d\n%!" (index + 1) n
       done;
       Printf.printf "linted %d generated modules (seed %d): %d violation%s\n" n seed !errors
         (if !errors = 1 then "" else "s")
     | false, None, Some path -> lint_one path (read_module path)
     | false, None, None ->
       Printf.eprintf "wasabi lint: need INPUT.wasm, --corpus, or --fuzz N\n";
       exit 2);
    if !errors > 0 then exit lint_exit_code
  in
  let info =
    Cmd.info "lint"
      ~doc:"Instrument and statically verify instrumentation soundness (original \
            instructions preserved in order and stack shape, hook imports match their \
            specs, sections unchanged up to remapping); soundness errors exit 8"
  in
  Cmd.v info
    Term.(const run $ input_opt $ hooks_arg $ selective_arg $ fold_arg $ corpus_arg $ fuzz_arg
          $ seed_arg)

(* --- fuzz ------------------------------------------------------------ *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int Fuzz.Harness.default_seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; every case replays from (seed, index)")
  in
  let gen_arg =
    Arg.(value & opt int 5000 & info [ "gen" ] ~docv:"N" ~doc:"Number of generated-module cases")
  in
  let mut_arg =
    Arg.(value & opt int 5000 & info [ "mut" ] ~docv:"N" ~doc:"Number of mutated-binary cases")
  in
  let out_arg =
    Arg.(value & opt string "fuzz-out"
         & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Directory for failing inputs (original + minimized)")
  in
  let replay_arg =
    let doc = "Replay a single case instead of running a campaign: $(docv) is gen:INDEX or mut:INDEX." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"CASE" ~doc)
  in
  let dump_arg =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
             ~doc:"With --replay: also write the case's input bytes to FILE (corpus promotion)")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output")
  in
  let faults_arg =
    Arg.(value & flag
         & info [ "faults" ]
             ~doc:"Run every generated case through the restore-equivalence oracle under a \
                   deterministic host-fault plan (hook traps, corrupt returns, budget burns) \
                   derived from (seed, index); failure dumps record the plan and replay with \
                   this flag")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write campaign metrics (cases/s, per-oracle timing histograms) to FILE: \
                   Prometheus text when it ends in .prom, JSON otherwise")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Shard cases across N domains. Every case is determined by (seed, index) \
                   alone, so the findings are byte-identical for any job count")
  in
  let run seed gen mut out replay dump quiet faults metrics_out jobs =
    match replay with
    | Some spec ->
      let case, index =
        match String.split_on_char ':' spec with
        | [ "gen"; i ] -> (Fuzz.Harness.Generated, int_of_string i)
        | [ "mut"; i ] -> (Fuzz.Harness.Mutated, int_of_string i)
        | _ ->
          Printf.eprintf "bad --replay spec %S (expected gen:INDEX or mut:INDEX)\n" spec;
          exit 2
      in
      (match dump with
       | None -> ()
       | Some path ->
         let bytes =
           match case with
           | Fuzz.Harness.Generated ->
             Wasm.Encode.encode (Fuzz.Harness.gen_case ~seed ~index).Fuzz.Gen.module_
           | Fuzz.Harness.Mutated -> Fuzz.Harness.mut_case ~seed ~index
         in
         write_file path bytes;
         Printf.eprintf "wrote %s (%d bytes)\n" path (String.length bytes));
      let disposition = Fuzz.Harness.replay ~faults ~seed ~index case in
      Printf.printf "seed %d, %s case %d%s: %s\n" seed
        (match case with Fuzz.Harness.Generated -> "generated" | Fuzz.Harness.Mutated -> "mutated")
        index
        (if faults then " (with faults)" else "")
        (Fuzz.Harness.disposition_to_string disposition);
      (match disposition with Fuzz.Harness.Fail _ -> exit 1 | Fuzz.Harness.Pass _ | Fuzz.Harness.Skip _ -> ())
    | None ->
      let log = if quiet then fun _ -> () else fun s -> Printf.eprintf "%s\n%!" s in
      let metrics = Option.map (fun _ -> Obs.Metrics.create ()) metrics_out in
      let stats, failures =
        Fuzz.Harness.run ~log ~out_dir:out ?metrics ~faults ~jobs ~seed ~gen_count:gen
          ~mut_count:mut ()
      in
      (match metrics_out, metrics with
       | Some path, Some reg ->
         let text =
           if Filename.check_suffix path ".prom" then Obs.Metrics.to_prometheus reg
           else Obs.Metrics.to_json reg
         in
         write_file path text;
         Printf.eprintf "wrote %s\n" path
       | _ -> ());
      Printf.printf "%s\n" (Fuzz.Harness.summary stats);
      List.iter
        (fun (f : Fuzz.Harness.failure) ->
           Printf.printf "  FAIL [%s] replay with: wasabi fuzz --seed %d --replay %s:%d%s\n"
             f.Fuzz.Harness.oracle seed
             (match f.Fuzz.Harness.case with
              | Fuzz.Harness.Generated -> "gen"
              | Fuzz.Harness.Mutated -> "mut")
             f.Fuzz.Harness.index
             (if f.Fuzz.Harness.fault_plan = None then "" else " --faults"))
        failures;
      if failures <> [] then exit 1
  in
  let info =
    Cmd.info "fuzz"
      ~doc:"Differential fuzzing: generated + mutated modules against the totality, round-trip, instrumentation-soundness, differential-equivalence, tier-parity, probe-parity, absint-soundness and (with --faults) restore-equivalence oracles"
  in
  Cmd.v info
    Term.(const run $ seed_arg $ gen_arg $ mut_arg $ out_arg $ replay_arg $ dump_arg
          $ quiet_arg $ faults_arg $ metrics_out_arg $ jobs_arg)

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let entry_arg =
    Arg.(value & opt string "run" & info [ "entry" ] ~docv:"EXPORT" ~doc:"Exported function each run invokes")
  in
  let domains_arg =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains serving runs")
  in
  let runs_arg =
    Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N" ~doc:"Total executions to serve")
  in
  let mode_arg =
    Arg.(value & opt (enum [ ("sync", `Sync); ("async", `Async) ]) `Sync
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Analysis dispatch: $(b,sync) runs callbacks inline in the workers \
                   (reference semantics); $(b,async) ships reified events through \
                   per-worker rings to consumer domains")
  in
  let consumers_arg =
    Arg.(value & opt int 1
         & info [ "consumers" ] ~docv:"N" ~doc:"Consumer domains draining rings (async mode)")
  in
  let capacity_arg =
    Arg.(value & opt int 1024
         & info [ "ring-capacity" ] ~docv:"N"
             ~doc:"Per-worker ring capacity in events, rounded up to a power of two; a full \
                   ring blocks its producer (backpressure, async mode)")
  in
  let analysis_arg =
    let doc = "Bundled analysis every run feeds (instruction-mix, basic-blocks, coverage, call-graph, cryptominer, memory-trace, taint, trace)" in
    Arg.(value & opt string "instruction-mix" & info [ "analysis" ] ~docv:"NAME" ~doc)
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Before serving, differentially check that the async event stream equals \
                   the sync stream for this module and entry (exit 13 on mismatch)")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write farm metrics (runs, faults, instances/s, event-latency histogram) \
                   to FILE: Prometheus text when it ends in .prom, JSON otherwise")
  in
  let run input entry domains runs mode consumers capacity analysis_name verify tier
      deadline_ms max_grow_pages host_call_budget metrics_out =
    structured @@ fun () ->
    let m = read_module input in
    Wasm.Validate.validate_module m;
    match List.assoc_opt analysis_name (bundled_analyses ()) with
    | None ->
      Printf.eprintf "unknown analysis %S\n" analysis_name;
      exit 2
    | Some (Packaged a) ->
      let groups = a.groups in
      let res = W.Instrument.instrument ~groups m in
      if verify && not (Serve.Farm.verify_stream_equality ~entry res) then begin
        Printf.eprintf "wasabi serve: async event stream differs from sync reference\n";
        exit 13
      end;
      let mode =
        match mode with
        | `Sync -> Serve.Farm.Sync
        | `Async -> Serve.Farm.Async { consumers; capacity }
      in
      let tier1 = match tier with Some n when n > 0 -> true | _ -> false in
      let make_governor =
        match deadline_ms, max_grow_pages, host_call_budget with
        | None, None, None -> None
        | _ ->
          Some (fun () -> Wasm.Governor.create ?deadline_ms ?max_grow_pages ?host_call_budget ())
      in
      (* fresh analysis state per worker: each is touched by exactly one
         domain, so the bundled analyses need no locking *)
      let make_analysis _w =
        match List.assoc analysis_name (bundled_analyses ()) with
        | Packaged b -> b.analysis b.state
      in
      let st =
        Serve.Farm.run ~tier1 ?make_governor ~mode ~domains ~runs ~entry ~make_analysis res
      in
      Printf.printf "served %d runs (%d contained faults) on %d domains [%s]\n"
        st.Serve.Farm.st_runs st.Serve.Farm.st_faults st.Serve.Farm.st_domains
        st.Serve.Farm.st_mode;
      Printf.printf "  %.1f instances/s over %.3f s\n" st.Serve.Farm.st_instances_per_sec
        st.Serve.Farm.st_elapsed_s;
      if st.Serve.Farm.st_events > 0 then
        Printf.printf "  %d events shipped; sampled delivery latency p50 %.1f us, p99 %.1f us\n"
          st.Serve.Farm.st_events
          (st.Serve.Farm.st_lat_p50_ns /. 1e3)
          (st.Serve.Farm.st_lat_p99_ns /. 1e3);
      (match metrics_out with
       | None -> ()
       | Some path ->
         let reg = Obs.Metrics.default in
         let text =
           if Filename.check_suffix path ".prom" then Obs.Metrics.to_prometheus reg
           else Obs.Metrics.to_json reg
         in
         write_file path text;
         Printf.eprintf "wrote %s\n" path)
  in
  let info =
    Cmd.info "serve"
      ~doc:"Serve repeated isolated executions from one instrumented instance across domains \
            (decode/instrument/compile once, fork + snapshot-restore per run), with sync or \
            async analysis dispatch"
  in
  Cmd.v info
    Term.(const run $ input_arg $ entry_arg $ domains_arg $ runs_arg $ mode_arg
          $ consumers_arg $ capacity_arg $ analysis_arg $ verify_arg $ tier_arg
          $ deadline_arg $ max_grow_arg $ host_call_budget_arg $ metrics_out_arg)

(* --- profile --------------------------------------------------------- *)

let profile_cmd =
  let input_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT.wasm" ~doc:"Input binary")
  in
  let corpus_arg =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"Profile every workload of the built-in benchmark corpus instead of a file")
  in
  let invoke_arg =
    Arg.(value & opt string "run" & info [ "invoke" ] ~docv:"EXPORT" ~doc:"Exported function to call")
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows of the function/opcode tables")
  in
  let folded_arg =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded stacks (flamegraph.pl / speedscope input) to FILE")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the pipeline + run spans as Chrome trace-event JSON (Perfetto-loadable)")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write per-workload profile metrics to FILE: Prometheus text when it ends \
                   in .prom, JSON otherwise")
  in
  let run input hooks corpus invoke top folded trace_out metrics_out tier =
    structured @@ fun () ->
    if trace_out <> None then begin
      Obs.Span.set_enabled true;
      Obs.Span.reset ()
    end;
    let workloads =
      if corpus then
        List.map (fun (e : Workloads.Corpus.entry) -> (e.name, e.module_)) (Workloads.Corpus.make ())
      else
        match input with
        | Some path -> [ (Filename.remove_extension (Filename.basename path), read_module path) ]
        | None ->
          Printf.eprintf "wasabi profile: need INPUT.wasm or --corpus\n";
          exit 2
    in
    let registry = Obs.Metrics.create () in
    let folded_buf = Buffer.create 256 in
    let many = List.length workloads > 1 in
    List.iteri
      (fun i (label, m) ->
         if i > 0 then print_newline ();
         Printf.printf "== %s ==\n" label;
         Obs.Span.with_ label @@ fun () ->
         Wasm.Validate.validate_module m;
         let prof = Obs.Profile.create () in
         let inst, hook_map =
           match hooks with
           | None ->
             let inst = Wasm.Interp.instantiate ~fuel:max_int ~imports:[] m in
             Wasm.Interp.set_profiler inst (Some prof);
             (inst, None)
           | Some _ ->
             let groups = parse_groups hooks in
             let res = W.Instrument.instrument ~groups m in
             let inst, rt = W.Runtime.instantiate ~fuel:max_int res W.Analysis.default in
             W.Runtime.attach_profiler rt (Some prof);
             (inst, Some res.W.Instrument.hook_map)
         in
         let sites0 = Wasm.Tier1.hook_sites () in
         apply_tier tier inst;
         let t0 = Obs.Clock.now_ns () in
         let results =
           Obs.Span.with_ "run" (fun () -> Wasm.Interp.invoke_export inst invoke [])
         in
         let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
         let sites1 = Wasm.Tier1.hook_sites () in
         Printf.printf "%s returned [%s] in %.3f ms (%d instructions)\n\n" invoke
           (String.concat "; " (List.map Wasm.Value.to_string results))
           (Obs.Clock.ns_to_ms wall_ns) inst.Wasm.Interp.steps;
         print_string (Wasm.Profile_report.func_table ~top inst prof);
         print_newline ();
         print_string (Wasm.Profile_report.render_opcode_mix ~top inst prof);
         (match hook_map with
          | None -> ()
          | Some hm ->
            print_newline ();
            (* hook-overhead breakdown: dispatch count and time per group,
               then the decode-vs-analysis split of the same time (the
               "dispatch." timers re-slice the per-group totals, so they
               are excluded from the per-group sum) *)
            let phases, timers =
              List.partition
                (fun (key, _, _) -> String.starts_with ~prefix:"dispatch." key)
                (Obs.Profile.timer_list prof)
            in
            if timers <> [] then begin
              Printf.printf "%-24s %12s %12s %10s\n" "hook dispatch" "calls" "total ms" "avg ns";
              List.iter
                (fun (key, calls, ns) ->
                   Printf.printf "%-24s %12d %12.3f %10.0f\n" key calls (Obs.Clock.ns_to_ms ns)
                     (if calls = 0 then 0.0 else Int64.to_float ns /. Float.of_int calls))
                timers;
              let hook_ns = List.fold_left (fun acc (_, _, ns) -> Int64.add acc ns) 0L timers in
              Printf.printf "hook dispatch total: %.3f ms (%.1f%% of wall time)\n\n"
                (Obs.Clock.ns_to_ms hook_ns)
                (if Int64.equal wall_ns 0L then 0.0
                  else 100.0 *. Int64.to_float hook_ns /. Int64.to_float wall_ns)
            end;
            if phases <> [] then begin
              let phase_ns =
                List.fold_left (fun acc (_, _, ns) -> Int64.add acc ns) 0L phases
              in
              Printf.printf "%-24s %12s %12s %10s\n" "dispatch phase" "calls" "total ms" "share";
              List.iter
                (fun (key, calls, ns) ->
                   Printf.printf "%-24s %12d %12.3f %9.1f%%\n" key calls
                     (Obs.Clock.ns_to_ms ns)
                     (if Int64.equal phase_ns 0L then 0.0
                      else 100.0 *. Int64.to_float ns /. Int64.to_float phase_ns))
                phases;
              print_newline ()
            end;
            print_hook_stats hm);
         (* folded stacks, one workload's paths prefixed by its name *)
         List.iter
           (fun line ->
              if many then Buffer.add_string folded_buf (label ^ ";");
              Buffer.add_string folded_buf line;
              Buffer.add_char folded_buf '\n')
           (Wasm.Profile_report.folded inst prof);
         (* machine-readable summary *)
         let labels = [ ("workload", label) ] in
         Obs.Metrics.set
           (Obs.Metrics.gauge ~registry ~labels ~help:"Wall time of the profiled invocation"
              "profile_run_seconds")
           (Obs.Clock.ns_to_s wall_ns);
         Obs.Metrics.inc ~by:(Float.of_int inst.Wasm.Interp.steps)
           (Obs.Metrics.counter ~registry ~labels ~help:"Instructions retired"
              "profile_instructions_total");
         let calls =
           List.fold_left
             (fun acc (r : Obs.Profile.func_row) -> acc + r.fr_calls)
             0 (Obs.Profile.func_rows prof)
         in
         Obs.Metrics.inc ~by:(Float.of_int calls)
           (Obs.Metrics.counter ~registry ~labels ~help:"Wasm function calls"
              "profile_calls_total");
         List.iter
           (fun (key, n, ns) ->
              let labels = ("hook", key) :: labels in
              Obs.Metrics.inc ~by:(Float.of_int n)
                (Obs.Metrics.counter ~registry ~labels ~help:"Hook dispatches"
                   "profile_hook_dispatch_total");
              Obs.Metrics.set
                (Obs.Metrics.gauge ~registry ~labels ~help:"Time in hook dispatch"
                   "profile_hook_dispatch_seconds")
                (Obs.Clock.ns_to_s ns))
           (Obs.Profile.timer_list prof);
         match hook_map with
         | None -> ()
         | Some hm ->
           (* hook call sites tier 1 compiled during this run, bound to
              site entries or left on the array ABI *)
           List.iter
             (fun (binding, n) ->
                Obs.Metrics.inc ~by:(Float.of_int n)
                  (Obs.Metrics.counter ~registry ~labels:(("binding", binding) :: labels)
                     ~help:"Hook call sites compiled by tier 1, by site binding"
                     "profile_tier1_hook_sites_total"))
             [ ("bound", fst sites1 - fst sites0); ("generic", snd sites1 - snd sites0) ];
           Obs.Metrics.set
             (Obs.Metrics.gauge ~registry ~labels ~help:"Monomorphic hooks generated"
                "profile_monomorph_generated") (Float.of_int (W.Hook.Map.count hm));
           Obs.Metrics.set
             (Obs.Metrics.gauge ~registry ~labels ~help:"Monomorphization cache hits"
                "profile_monomorph_hits") (Float.of_int (W.Hook.Map.hits hm)))
      workloads;
    (match folded with
     | None -> ()
     | Some path ->
       write_file path (Buffer.contents folded_buf);
       Printf.eprintf "wrote %s\n" path);
    (match trace_out with
     | None -> ()
     | Some path ->
       write_file path (Obs.Span.to_chrome_json ());
       Printf.eprintf "wrote %s\n" path);
    match metrics_out with
    | None -> ()
    | Some path ->
      let text =
        if Filename.check_suffix path ".prom" then Obs.Metrics.to_prometheus registry
        else Obs.Metrics.to_json registry
      in
      write_file path text;
      Printf.eprintf "wrote %s\n" path
  in
  let info =
    Cmd.info "profile"
      ~doc:"Run a binary (or the benchmark corpus) under the interpreter profiler: hot \
            functions (calls, self/inclusive time), executed opcode mix, hook-dispatch \
            overhead when instrumented (--hooks), folded stacks, Chrome trace JSON and \
            machine-readable metrics"
  in
  Cmd.v info
    Term.(const run $ input_opt $ hooks_arg $ corpus_arg $ invoke_arg $ top_arg $ folded_arg
          $ trace_out_arg $ metrics_out_arg $ tier_arg)

(* --- probe ------------------------------------------------------------ *)

let probe_cmd =
  let analysis_arg =
    let doc = "Bundled analysis the probes deliver events to (same registry as $(b,wasabi analyze))" in
    Arg.(value & opt string "instruction-mix" & info [ "analysis" ] ~docv:"NAME" ~doc)
  in
  let invoke_arg =
    Arg.(value & opt string "run" & info [ "invoke" ] ~docv:"EXPORT" ~doc:"Exported function to call")
  in
  let attach_arg =
    Arg.(value & opt_all string []
         & info [ "attach" ] ~docv:"SPEC"
             ~doc:"Attach a probe: $(i,GROUPS)[@func=N][@loc=F:I][@nth=K], where GROUPS is \
                   $(b,all) or comma-separated hook group names. Repeatable. Default when \
                   none given: $(b,all)")
  in
  let probe_at_arg =
    Arg.(value & opt (some string) None
         & info [ "probe-at" ] ~docv:"step=N"
             ~doc:"Defer every --attach until the instance's step counter first reaches N \
                   (checked at fuel-batch boundaries on every tier)")
  in
  let detach_at_arg =
    Arg.(value & opt (some int) None
         & info [ "detach-at" ] ~docv:"N"
             ~doc:"Detach all probes once the step counter reaches N")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"Print the armed probe set before running")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"After the run, print per-probe hit/fire counts and the \
                   attached/fired/detached totals")
  in
  let run input analysis_name invoke attach_specs probe_at detach_at list_probes stats tier =
    structured @@ fun () ->
    let m = read_module input in
    Wasm.Validate.validate_module m;
    match List.assoc_opt analysis_name (bundled_analyses ()) with
    | None ->
      Printf.eprintf "unknown analysis %S\n" analysis_name;
      exit 2
    | Some (Packaged a) ->
      let module P = W.Runtime.Probe in
      let inst = Wasm.Interp.instantiate ~fuel:max_int ~imports:[] m in
      let c = P.create inst (a.analysis a.state) in
      let specs = if attach_specs = [] then [ "all" ] else attach_specs in
      let probe_at_step =
        match probe_at with
        | None -> None
        | Some s ->
          let n =
            if String.length s > 5 && String.sub s 0 5 = "step=" then
              int_of_string_opt (String.sub s 5 (String.length s - 5))
            else None
          in
          (match n with
           | Some n when n >= 0 -> Some n
           | _ ->
             Printf.eprintf "wasabi probe: --probe-at expects step=N, got %S\n" s;
             exit 2)
      in
      List.iter
        (fun raw ->
           match P.validate_spec raw with
           | Error e ->
             Printf.eprintf "wasabi probe: bad --attach %S: %s\n" raw e;
             exit 2
           | Ok spec ->
             (match probe_at_step with
              | None -> ignore (P.attach c spec)
              | Some step -> P.attach_at c ~step spec))
        specs;
      (match detach_at with
       | None -> ()
       | Some step -> Wasm.Interp.add_step_trigger inst ~at:step (fun () -> P.detach_all c));
      if list_probes then begin
        (match P.entries c with
         | [] ->
           (match probe_at_step with
            | Some step ->
              List.iter
                (fun raw -> Printf.printf "probe (armed at step %d)  %s\n" step raw)
                specs
            | None -> print_endline "no probes attached")
         | entries ->
           List.iter
             (fun (e : Obs.Probe.entry) ->
                Printf.printf "probe %d  %s\n" e.Obs.Probe.e_id
                  (Obs.Probe.spec_to_string e.Obs.Probe.e_spec))
             entries)
      end;
      apply_tier tier inst;
      let results = Wasm.Interp.invoke_export inst invoke [] in
      Printf.printf "%s returned [%s]\n" invoke
        (String.concat "; " (List.map Wasm.Value.to_string results));
      print_string (a.report a.state);
      if stats then begin
        let mgr = P.manager c in
        print_newline ();
        List.iter
          (fun (e : Obs.Probe.entry) ->
             Printf.printf "probe %d  %-40s %s  hits %d  fired %d\n" e.Obs.Probe.e_id
               (Obs.Probe.spec_to_string e.Obs.Probe.e_spec)
               (if e.Obs.Probe.e_active then "active  " else "detached")
               e.Obs.Probe.e_hits e.Obs.Probe.e_fired)
          (P.all_entries c);
        Printf.printf "attached %d  fired %d  detached %d\n"
          (Obs.Probe.attached_total mgr) (Obs.Probe.fired_total mgr)
          (Obs.Probe.detached_total mgr)
      end
  in
  let info =
    Cmd.info "probe"
      ~doc:"Run a bundled analysis via live engine probes (no binary rewrite)"
      ~man:
        [ `S Manpage.s_description;
          `P "Instead of rewriting the module ahead of time ($(b,wasabi analyze)), \
              $(b,probe) instantiates the original binary and installs in-engine \
              instruction-stream probes that dispatch to the same analysis callbacks. \
              Probes attach and detach live: $(b,--probe-at) arms them mid-run at a step \
              count, $(b,--detach-at) disarms them, and a probe attached from inside a \
              host call takes effect at the next function entry. Probes run on tier 1: \
              a function a probe matches is compiled together with its probe sites at its \
              first entry after the attach, with or without $(b,--tier), while unmatched \
              functions keep their usual tier; after detach it re-tiers as usual." ]
  in
  Cmd.v info
    Term.(const run $ input_arg $ analysis_arg $ invoke_arg $ attach_arg $ probe_at_arg
          $ detach_at_arg $ list_arg $ stats_arg $ tier_arg)

(* --- corpus ---------------------------------------------------------- *)

let corpus_cmd =
  let dir_arg =
    Arg.(value & opt string "corpus" & info [ "o" ] ~docv:"DIR" ~doc:"Output directory")
  in
  let run dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (e : Workloads.Corpus.entry) ->
         let path = Filename.concat dir (e.name ^ ".wasm") in
         write_module path e.module_;
         Printf.printf "wrote %s\n" path)
      (Workloads.Corpus.make ())
  in
  let info = Cmd.info "corpus" ~doc:"Write the 32-program benchmark corpus as .wasm files" in
  Cmd.v info Term.(const run $ dir_arg)

let () =
  let info = Cmd.info "wasabi" ~version:"1.0.0" ~doc:"Dynamic analysis for WebAssembly" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ instrument_cmd; analyze_cmd; generate_js_cmd; hooks_cmd; callgraph_cmd; absint_cmd;
            lint_cmd; fuzz_cmd; serve_cmd; profile_cmd; probe_cmd; corpus_cmd ]))
