(** Differential regression test for the hook-dispatch fast path: for
    every hook spec exercised by the corpus (and by a hand-built kitchen
    sink covering the long tail — i64 splitting, br_table, indirect
    calls, memory.grow), the compiled per-spec decoder and the retained
    list-based reference decoder must produce byte-identical high-level
    hook invocations, in the same order, with the same program result —
    on tier 0 (array ABI) and on tier 1, where hook calls bind to
    site-specialised entries, with and without a profiler. The analyses
    that count sites instead of decoding them must report the same bytes
    on every backend. *)

open Minic.Mc_ast
module W = Wasabi

let case name fn = Alcotest.test_case name `Quick fn

let corpus = lazy (Workloads.Corpus.make ~n:4 ())

(* --- a recording analysis --------------------------------------------- *)

(** Every callback appends one fully formatted line (location, operands,
    resolved targets, ops) to a rolling digest, so transcripts of
    millions of events compare in constant memory. *)
let recorder () =
  let buf = Buffer.create (1 lsl 16) in
  let digest = ref "" in
  let count = ref 0 in
  let fold () =
    digest := Digest.string (!digest ^ Digest.string (Buffer.contents buf));
    Buffer.clear buf
  in
  let emit fmt =
    incr count;
    Printf.ksprintf
      (fun s ->
         Buffer.add_string buf s;
         Buffer.add_char buf '\n';
         if Buffer.length buf > 1 lsl 20 then fold ())
      fmt
  in
  let final () = fold (); (!digest, !count) in
  let loc = W.Location.to_string in
  let value = Wasm.Value.to_string in
  let values vs = String.concat "," (List.map value vs) in
  let target (t : W.Metadata.target) =
    Printf.sprintf "%d@%s" t.W.Metadata.label (loc t.W.Metadata.target_loc)
  in
  let kind = W.Hook.block_kind_name in
  let analysis =
    { W.Analysis.nop = (fun l -> emit "nop %s" (loc l));
      unreachable = (fun l -> emit "unreachable %s" (loc l));
      if_ = (fun l c -> emit "if %s %b" (loc l) c);
      br = (fun l t -> emit "br %s %s" (loc l) (target t));
      br_if = (fun l t c -> emit "br_if %s %s %b" (loc l) (target t) c);
      br_table =
        (fun l table default idx ->
           emit "br_table %s [%s] %s %d" (loc l)
             (String.concat ";" (Array.to_list (Array.map target table)))
             (target default) idx);
      begin_ = (fun l k -> emit "begin %s %s" (loc l) (kind k));
      end_ = (fun l k b -> emit "end %s %s %s" (loc l) (kind k) (loc b));
      const = (fun l x -> emit "const %s %s" (loc l) (value x));
      drop = (fun l x -> emit "drop %s %s" (loc l) (value x));
      select =
        (fun l c a b -> emit "select %s %b %s %s" (loc l) c (value a) (value b));
      unary =
        (fun l op x r -> emit "unary %s %s %s %s" (loc l) op (value x) (value r));
      binary =
        (fun l op x y r ->
           emit "binary %s %s %s %s %s" (loc l) op (value x) (value y) (value r));
      local =
        (fun l op idx x -> emit "local %s %s %d %s" (loc l) op idx (value x));
      global =
        (fun l op idx x -> emit "global %s %s %d %s" (loc l) op idx (value x));
      load =
        (fun l op m x ->
           emit "load %s %s %ld+%d %s" (loc l) op m.W.Analysis.addr
             m.W.Analysis.offset (value x));
      store =
        (fun l op m x ->
           emit "store %s %s %ld+%d %s" (loc l) op m.W.Analysis.addr
             m.W.Analysis.offset (value x));
      memory_size = (fun l pages -> emit "memory_size %s %d" (loc l) pages);
      memory_grow =
        (fun l delta prev -> emit "memory_grow %s %d %d" (loc l) delta prev);
      call_pre =
        (fun l callee args tbl ->
           emit "call_pre %s %d [%s] %s" (loc l) callee (values args)
             (match tbl with None -> "-" | Some t -> string_of_int t));
      call_post = (fun l rs -> emit "call_post %s [%s]" (loc l) (values rs));
      return_ = (fun l rs -> emit "return %s [%s]" (loc l) (values rs));
      start = (fun l -> emit "start %s" (loc l));
      site = W.Analysis.default.site;
    }
  in
  (analysis, final)

(** Run an instrumented module's [run] export under one decoder on one
    AOT backend ({!Helpers.backend}); returns (program results,
    transcript digest, event count). *)
let transcript ?(backend = Helpers.T0) ~decoder (res : W.Instrument.result) =
  let analysis, final = recorder () in
  let results = Helpers.run_analysis ~decoder backend res analysis in
  let digest, count = final () in
  (List.map Wasm.Value.to_string results, digest, count)

let check_identical name (res : W.Instrument.result) =
  let r_r, d_r, n_r = transcript ~decoder:`Reference res in
  List.iter
    (fun backend ->
       let name =
         if backend = Helpers.T0 then name
         else Printf.sprintf "%s (%s)" name (Helpers.backend_name backend)
       in
       let r_c, d_c, n_c = transcript ~backend ~decoder:`Compiled res in
       Alcotest.(check (list string)) (name ^ ": results") r_r r_c;
       Alcotest.(check int) (name ^ ": event count") n_r n_c;
       Alcotest.(check string) (name ^ ": transcript") d_r d_c;
       Alcotest.(check bool) (name ^ ": observed events") true (n_c > 0))
    [ Helpers.T0; T1; T1_profiled ]

(* --- corpus ----------------------------------------------------------- *)

let test_corpus_differential () =
  List.iter
    (fun (e : Workloads.Corpus.entry) ->
       check_identical e.name (W.Instrument.instrument e.module_))
    (Lazy.force corpus)

(* --- kitchen sink: the long tail the corpus may not reach ------------- *)

(** i64 arithmetic (split across two i32 hook params), direct and
    indirect calls with mixed-type arguments and results, [switch]
    (br_table), [select], typed loads/stores, casts, memory.size/grow. *)
let kitchen_sink () =
  let open Dsl in
  Minic.Mc_compile.compile
    (program
       ~globals:[ ("h", TLong, Long 0xcbf29ce484222325L); ("acc", TFloat, Float 0.0) ]
       ~table:[ "ticks" ]
       [ func "mixi" ~params:[ ("a", TInt); ("b", TLong) ] ~result:TLong
           ~export:false
           [ Return (Some (Binop (BXor, Cast (TLong, v "a"),
                                  Binop (Mul, v "b", Long 0x100000001b3L)))) ];
         func "mixf" ~params:[ ("x", TFloat); ("n", TInt) ] ~result:TFloat
           ~export:false
           [ Return (Some (v "x" * Cast (TFloat, v "n" + i 1))) ];
         func "ticks" ~result:TLong ~export:false
           [ Return (Some (Binop (BAnd, Global "h", Long 0xFFL))) ];
         func "run" ~result:TFloat ~locals:[ ("k", TInt); ("t", TLong) ]
           [ Expr (MemGrow (i 1));
             For ("k", i 0, i 40,
                  [ SetGlobal ("h", Binop (BXor, Global "h", Cast (TLong, v "k")));
                    SetGlobal ("h", Binop (Mul, Global "h", Long 0x100000001b3L));
                    Assign ("t", Call ("mixi", [ v "k"; Global "h" ]));
                    Assign ("t", CallIndirect (i 0, [], Some TLong));
                    If (Binop (BAnd, v "k", i 1) = i 0,
                        [ SetGlobal ("acc", Call ("mixf", [ Global "acc"; v "k" ])) ],
                        []);
                    Switch (Binop (BAnd, v "k", i 3),
                            [ [ SetGlobal ("acc", Global "acc" + f 1.0) ];
                              [ istore (i 0) (Binop (BAnd, v "k", i 15))
                                  (Cast (TInt, v "t")) ] ],
                            [ SetGlobal ("acc",
                                         Global "acc"
                                         + Cast (TFloat,
                                                 Select (v "k" < i 20,
                                                         iload (i 0) (Binop (BAnd, v "k", i 15)),
                                                         MemSize))) ]) ]);
             Return (Some (Global "acc"
                           + Cast (TFloat, Binop (BAnd, Global "h", Long 0xFFFFFL)))) ] ])

let test_kitchen_sink_split () =
  check_identical "kitchen-sink (split i64)"
    (W.Instrument.instrument (kitchen_sink ()))

let test_kitchen_sink_nosplit () =
  check_identical "kitchen-sink (native i64)"
    (W.Instrument.instrument ~split_i64:false (kitchen_sink ()))

(* --- site binding coverage ---------------------------------------- *)

(** Tier 1 binds nearly every hook call site of the instrumented corpus
    to a site entry; the ones left generic push split i64 halves. *)
let test_site_binding () =
  let b0, g0 = Wasm.Tier1.hook_sites () in
  List.iter
    (fun (e : Workloads.Corpus.entry) ->
       let inst, _ = W.Runtime.instantiate (W.Instrument.instrument e.module_) W.Analysis.default in
       ignore (Wasm.Tier1.compile_all inst : int))
    (Lazy.force corpus);
  let b1, g1 = Wasm.Tier1.hook_sites () in
  let bound = b1 - b0 and generic = g1 - g0 in
  Alcotest.(check bool)
    (Printf.sprintf "bound %d of %d hook sites (>= 95%%)" bound (bound + generic))
    true
    (bound > 0 && 100 * bound >= 95 * (bound + generic))

(* --- spec coverage sanity --------------------------------------------- *)

(** The differential runs above are only as strong as the specs they
    exercise: assert the tested modules, together, monomorphize hooks in
    every group the instrumenter can target (minus the trap-only ones a
    terminating corpus cannot execute). *)
let test_spec_coverage () =
  let groups = Hashtbl.create 32 in
  let collect (res : W.Instrument.result) =
    Array.iter
      (fun s -> Hashtbl.replace groups (W.Hook.group_of_spec s) ())
      res.W.Instrument.metadata.W.Metadata.hook_specs
  in
  List.iter
    (fun (e : Workloads.Corpus.entry) ->
       collect (W.Instrument.instrument e.module_))
    (Lazy.force corpus);
  collect (W.Instrument.instrument (kitchen_sink ()));
  let expect =
    [ W.Hook.G_if; G_br; G_br_if; G_br_table; G_begin; G_end; G_const;
      G_drop; G_select; G_unary; G_binary; G_local; G_global; G_load;
      G_store; G_memory_size; G_memory_grow; G_call; G_return ]
  in
  List.iter
    (fun g ->
       Alcotest.(check bool)
         (Printf.sprintf "group %s monomorphized" (W.Hook.group_name g))
         true (Hashtbl.mem groups g))
    expect

(* --- counted sites: reports across backends ---------------------- *)

(** The instruction-mix and basic-block reports of the corpus and the
    kitchen sink, which count hook sites ({!W.Analysis.site}), are the
    same bytes on every backend: tier 0 and the async consumer run the
    per-event callbacks, tier 1 and the probes the site counters, the
    profiled run the full decode. *)
let counted_analyses =
  let mix () =
    let t = Analyses.Instruction_mix.create () in
    (Analyses.Instruction_mix.analysis t, fun () -> Analyses.Instruction_mix.report t)
  in
  let blocks () =
    let t = Analyses.Basic_block_profiling.create () in
    ( Analyses.Basic_block_profiling.analysis t,
      fun () -> Analyses.Basic_block_profiling.report ~limit:max_int t )
  in
  [ ("instruction-mix", mix); ("basic-blocks", blocks) ]

(** Run [make ()]'s analysis on every backend and check that [report]
    reads the same as on tier 0, which runs the per-event callbacks;
    tier 1 and the probes bind the analysis's sites, the profiled run
    decodes every event and the async consumer applies reified events. *)
let same_on_every_backend name res make =
  let report backend =
    let analysis, report = make () in
    ignore (Helpers.run_analysis backend res analysis : Wasm.Value.t list);
    report ()
  in
  let expected = report Helpers.T0 in
  List.iter
    (fun backend ->
       Alcotest.(check string)
         (Printf.sprintf "%s (%s)" name (Helpers.backend_name backend))
         expected (report backend))
    [ Helpers.T1; T1_profiled; Probes; Async ];
  expected

let kitchen_and_corpus () =
  ("kitchen-sink", kitchen_sink ())
  :: List.map (fun (e : Workloads.Corpus.entry) -> (e.name, e.module_)) (Lazy.force corpus)

let test_counted_reports () =
  List.iter
    (fun (name, m) ->
       let res = W.Instrument.instrument m in
       List.iter
         (fun (aname, make) ->
            ignore (same_on_every_backend (name ^ ": " ^ aname) res make : string))
         counted_analyses)
    (kitchen_and_corpus ())

(* --- counted reports on trapping runs --------------------------------- *)

(** A [run] export whose one straight-line stretch traps in [trap]
    (which leaves an i32) between counted events before it and after
    it. *)
let trapping_module ?(memory = false) trap =
  let module B = Wasm.Builder in
  let b = B.create () in
  if memory then B.add_memory b ~min_pages:1 ~max_pages:(Some 1);
  let f =
    B.add_func b ~params:[] ~results:[ Wasm.Types.I32T ] ~locals:[ Wasm.Types.I32T; I32T ]
      ~body:
        ([ B.i32 5; B.local_set 0; B.local_get 0; B.i32 2; B.i32_mul; B.local_set 1 ]
         @ trap
         @ [ B.local_get 1; B.i32_add; B.local_tee 0; B.i32 3; B.i32_xor ])
  in
  B.export_func b ~name:"run" f;
  B.build b

(** Tier 1 runs a stretch's counted sites at its end, so an instruction
    that traps must end the stretch: the events counted before the trap
    show in the reports of every backend, those after it in none. (The
    async backend reifies every event and counts no site.) *)
let test_counted_trapping () =
  let module B = Wasm.Builder in
  let programs =
    [ ("i32.div_s by zero", trapping_module [ B.local_get 1; B.i32 0; B.i32_div_s ]);
      ( "out-of-bounds i32.load",
        trapping_module ~memory:true [ B.i32 70000; B.i32_load () ] ) ]
  in
  List.iter
    (fun (name, m) ->
       let res = W.Instrument.instrument m in
       List.iter
         (fun (aname, make) ->
            let report backend =
              let analysis, report = make () in
              (match Helpers.run_analysis backend res analysis with
               | _ -> Alcotest.failf "%s: no trap on %s" name (Helpers.backend_name backend)
               | exception Wasm.Value.Trap _ -> ());
              report ()
            in
            let expected = report Helpers.T0 in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s counts events before the trap" name aname)
              false
              (String.equal expected (snd (make ()) ()));
            List.iter
              (fun backend ->
                 Alcotest.(check string)
                   (Printf.sprintf "%s: %s (%s)" name aname (Helpers.backend_name backend))
                   expected (report backend))
              [ Helpers.T1; T1_profiled; Probes ])
         counted_analyses)
    programs

(* --- count groups ------------------------------------------------------ *)

(** Tier 1 merges the counted sites of the instruction mix on the
    PolyBench corpus into groups of at least 4 on average, on both
    backends: a frame-local set that ends stretches too early would undo
    the merge without failing any report. *)
let test_count_group_size () =
  let polybench = Workloads.Corpus.polybench (Lazy.force corpus) in
  let measure name run =
    let s0, g0 = Wasm.Tier1.count_groups () in
    List.iter run polybench;
    let s1, g1 = Wasm.Tier1.count_groups () in
    let sites = s1 - s0 and groups = g1 - g0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d counted sites in %d groups (>= 4 per group)" name sites groups)
      true
      (groups > 0 && sites >= 4 * groups)
  in
  let mix () = Analyses.Instruction_mix.(analysis (create ())) in
  measure "AOT" (fun (e : Workloads.Corpus.entry) ->
    let inst, _ = W.Runtime.instantiate (W.Instrument.instrument e.module_) (mix ()) in
    ignore (Wasm.Tier1.compile_all inst : int));
  measure "probes" (fun (e : Workloads.Corpus.entry) ->
    ignore (Helpers.run_analysis Helpers.Probes (W.Instrument.instrument e.module_) (mix ())
            : Wasm.Value.t list))

(* --- save/restore elision ------------------------------------------- *)

(** Tier 1 drops the save/restore code that only counted hook sites
    read. These programs put its rules on the spot: liveness across
    blocks, a restore whose slot or local was overwritten, boxed
    temporaries across uncounted hooks and calls. *)
let elision_cases () =
  let module B = Wasm.Builder in
  let open Wasm.Ast in
  let open Wasm.Types in
  let program ?(helper = false) ~locals ~results body =
    let b = B.create () in
    let g =
      (* i64 -> i64: one more than its argument *)
      B.add_func b ~params:[ I64T ] ~results:[ I64T ] ~locals:[]
        ~body:[ B.local_get 0; B.i64 1L; Binary (IBin (S64, Add)) ]
    in
    let body = if helper then body g else body (-1) in
    B.export_func b ~name:"run" (B.add_func b ~params:[] ~results ~locals ~body);
    B.build b
  in
  [ ( "temporary written before a loop, read after it",
      program ~locals:[ I32T; I32T ] ~results:[ I32T ] (fun _ ->
        [ B.i32 7; B.local_set 0 ]
        @ B.block
            (B.loop
               [ B.local_get 1; B.i32 1; B.i32_add; B.local_tee 1; B.i32 10; B.i32_lt_s;
                 BrIf 0 ])
        @ [ B.local_get 0; B.local_get 1; B.i32_add ]) );
    ( "local.tee read in a br_if target block",
      program ~locals:[ I32T; I32T ] ~results:[ I32T ] (fun _ ->
        [ B.i32 5; B.local_set 0 ]
        @ B.block
            [ B.local_get 0; B.i32 3; B.i32_mul; B.local_tee 1; BrIf 0; B.i32 99;
              B.local_set 1 ]
        @ [ B.local_get 1 ]) );
    ( "restore after a write to its slot or its local",
      program ~locals:[ I32T; I32T; I32T ] ~results:[ I32T ] (fun _ ->
        [ B.i32 5; B.local_set 0;
          (* the slot [local.set 1] left holds 9 when [local.get 1] reads it *)
          B.local_get 0; B.local_set 1; B.i32 9; Drop; B.local_get 1;
          (* local 1 is written while its slot still holds the old value *)
          B.local_get 0; B.local_tee 1; Drop; B.i32 4; B.local_set 1; B.local_get 1;
          B.i32_add; B.local_tee 2; B.local_get 2; B.i32_mul ]) );
    ( "increment, then a load its slot serves",
      program ~locals:[ I32T ] ~results:[ I32T ] (fun _ ->
        (* the fused [local.get 0; i32.const 3; i32.add; local.set 0]
           must leave the sum in the slot the next [local.get 0] reuses *)
        [ B.i32 5; B.local_set 0; B.i32 1; Drop; B.local_get 0; B.i32 3; B.i32_add;
          B.local_set 0; B.local_get 0; B.local_get 0; B.i32_mul ]) );
    ( "i64 and f32 temporaries across hooks and a call",
      program ~helper:true ~locals:[ I64T; F32T ] ~results:[ I32T ] (fun g ->
        [ B.i64 40L; B.local_set 0; B.f32 1.5; B.local_set 1;
          B.local_get 0; Call g; B.local_set 0;
          B.local_get 1; B.f32 2.0; Binary (FBin (SF32, FMul)); B.local_set 1;
          B.local_get 0; B.local_get 0; Binary (IBin (S64, Mul)); Convert I32WrapI64;
          B.local_get 1; Convert I32TruncF32S; B.i32_add ]) ) ]

(** Each case gives the same result on tier 0 and tier 1, uninstrumented
    and instrumented (i64 values split into halves or passed whole), and
    the counted reports are the same bytes on every backend. *)
let test_elision_cases () =
  List.iter
    (fun (name, m) ->
       Wasm.Validate.validate_module m;
       let run tier1 =
         let inst = Wasm.Interp.instantiate ~imports:[] m in
         if tier1 then ignore (Wasm.Tier1.compile_all inst : int);
         Wasm.Interp.invoke_export inst "run" []
       in
       let expected = run false in
       Helpers.check_values (name ^ ": tier 1") expected (run true);
       List.iter
         (fun split_i64 ->
            let res = W.Instrument.instrument ~split_i64 m in
            List.iter
              (fun (aname, make) ->
                 let report backend =
                   let analysis, report = make () in
                   let vs = Helpers.run_analysis backend res analysis in
                   if backend <> Helpers.Async then
                     Helpers.check_values
                       (Printf.sprintf "%s: %s result (%s)" name aname (Helpers.backend_name backend))
                       expected vs;
                   report ()
                 in
                 let reference = report Helpers.T0 in
                 List.iter
                   (fun backend ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s: %s, split %b (%s)" name aname split_i64
                           (Helpers.backend_name backend))
                        reference (report backend))
                   [ Helpers.T1; T1_profiled; Probes; Async ])
              counted_analyses)
         [ true; false ])
    (elision_cases ())

(** A site wrapped by a fault plan binds an entry, which reads its
    arguments: tier 1 keeps the temporaries it reads, so the run and the
    instruction mix match tier 0's, and fewer instructions are compiled
    away than under the bare counters. *)
let test_elision_faulted () =
  List.iter
    (fun (e : Workloads.Corpus.entry) ->
       let res = W.Instrument.instrument e.module_ in
       let run ?wrap_host tier1 =
         let t = Analyses.Instruction_mix.create () in
         let inst, _ =
           W.Runtime.instantiate ?wrap_host res (Analyses.Instruction_mix.analysis t)
         in
         let e0 = (Wasm.Tier1.peephole ()).elided in
         if tier1 then ignore (Wasm.Tier1.compile_all inst : int);
         let e1 = (Wasm.Tier1.peephole ()).elided in
         let vs = Wasm.Interp.invoke_export inst "run" [] in
         (vs, Analyses.Instruction_mix.report t, e1 - e0)
       in
       let plan = Fuzz.Faults.plan ~seed:5 ~index:0 in
       let wrap_host = Fuzz.Faults.wrap plan in
       let vs0, mix0, _ = run ~wrap_host false in
       let vs1, mix1, elided_wrapped = run ~wrap_host true in
       let _, _, elided = run true in
       Helpers.check_values (e.name ^ ": wrapped, tier 1") vs0 vs1;
       Alcotest.(check string) (e.name ^ ": wrapped mix, tier 1") mix0 mix1;
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d elided when wrapped, %d bare" e.name elided_wrapped elided)
         true (elided_wrapped < elided))
    (Workloads.Corpus.polybench (Lazy.force corpus))

(** On the PolyBench corpus with every event counted, tier 1 compiles
    away at least as many instructions as the instrumenter added stores
    to its temporaries (the save/restore code of Table 3). *)
let test_elided_stores () =
  List.iter
    (fun (e : Workloads.Corpus.entry) ->
       let res = W.Instrument.instrument e.module_ in
       let stores =
         List.fold_left2
           (fun acc (f : Wasm.Ast.func) (f' : Wasm.Ast.func) ->
              let first_temp =
                List.length (List.nth e.module_.types f.ftype).Wasm.Types.params
                + List.length f.locals
              in
              List.fold_left
                (fun acc -> function
                   | Wasm.Ast.LocalSet x | LocalTee x when x >= first_temp -> acc + 1
                   | _ -> acc)
                acc f'.body)
           0 e.module_.funcs res.W.Instrument.instrumented.funcs
       in
       let inst, _ =
         W.Runtime.instantiate res Analyses.Instruction_mix.(analysis (create ()))
       in
       let e0 = (Wasm.Tier1.peephole ()).elided in
       ignore (Wasm.Tier1.compile_all inst : int);
       let e1 = (Wasm.Tier1.peephole ()).elided in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d elided, %d temporary stores" e.name (e1 - e0) stores)
         true
         (stores > 0 && e1 - e0 >= stores))
    (Workloads.Corpus.polybench (Lazy.force corpus))

(* --- site facts: call graph and instruction coverage ------------------ *)

let call_graph () =
  let t = Analyses.Call_graph.create () in
  (Analyses.Call_graph.analysis t, fun () -> Analyses.Call_graph.(to_dot t ^ report t))

(** A direct call's edge is a fact of its site, which tier 1 and the
    probes bind once: the dot graph and the report of the corpus and
    the kitchen sink read the same on every backend. *)
let test_call_graph_backends () =
  List.iter
    (fun (name, m) ->
       ignore (same_on_every_backend name (W.Instrument.instrument m) call_graph : string))
    (kitchen_and_corpus ())

(** [leaf] (f0) reached through the table, [direct] (f1) by a direct
    call, and [never] (f2) by a direct call in a branch that never runs,
    all from [run] (f3). *)
let call_graph_module () =
  let open Dsl in
  Minic.Mc_compile.compile
    (program ~globals:[ ("g", TInt, i 0) ] ~table:[ "leaf" ]
       [ func "leaf" ~result:TInt ~export:false [ Return (Some (i 1)) ];
         func "direct" ~result:TInt ~export:false [ Return (Some (i 2)) ];
         func "never" ~result:TInt ~export:false [ Return (Some (i 3)) ];
         func "run" ~result:TFloat ~locals:[ ("k", TInt) ]
           [ If (Global "g" = i 1, [ Assign ("k", Call ("never", [])) ], []);
             Assign ("k", v "k" + Call ("direct", []));
             Assign ("k", v "k" + CallIndirect (i 0, [], Some TInt));
             Return (Some (Cast (TFloat, v "k"))) ] ])

(** Tier 1 and the probes bind the direct call to [never] at compile
    time, but its site adds the edge only when it fires: no edge to f2
    on any backend. *)
let test_call_graph_unrun () =
  let dot =
    same_on_every_backend "unrun call" (W.Instrument.instrument (call_graph_module ())) call_graph
  in
  Alcotest.(check string) "no edge to the call that never runs"
    "digraph calls {\n  \"f3\" -> \"f0\" [style=dashed];\n  \"f3\" -> \"f1\";\n}\n\
     call graph: 2 edges (1 from indirect calls)\n"
    dot

(** [res] with the table index of its indirect [call_pre] hook calls
    pushed as the constant 0 in place of the [local.get] the rewriter
    emits (the module's one [call_indirect] takes entry 0): tier 1 then
    binds a constant slot where a direct call's callee sits. *)
let constant_table_index (res : W.Instrument.result) =
  let meta = res.metadata in
  let hook = ref (-1) in
  Array.iteri
    (fun k spec ->
       match spec with
       | W.Hook.S_call_pre (_, true) -> hook := meta.W.Metadata.num_original_func_imports + k
       | _ -> ())
    meta.hook_specs;
  let rewritten = ref 0 in
  let rec rewrite = function
    | Wasm.Ast.LocalGet _ :: (Call h :: _ as rest) when h = !hook ->
      incr rewritten;
      Wasm.Ast.Const (Wasm.Value.I32 0l) :: rewrite rest
    | ins :: rest -> ins :: rewrite rest
    | [] -> []
  in
  let m = res.instrumented in
  let funcs = List.map (fun (f : Wasm.Ast.func) -> { f with body = rewrite f.body }) m.funcs in
  Alcotest.(check int) "one indirect call_pre hook call rewritten" 1 !rewritten;
  { res with instrumented = { m with funcs } }

(** An indirect call has no static callee, even where its table index
    is a constant at the hook call: it keeps its callback on every
    backend, which marks its edge dashed. (The rewriter's own shape is
    checked by the test above.) *)
let test_call_graph_indirect () =
  let res = constant_table_index (W.Instrument.instrument (call_graph_module ())) in
  let dot = same_on_every_backend "constant table index" res call_graph in
  Alcotest.(check bool) "dashed indirect edge" true
    (Helpers.contains dot "\"f3\" -> \"f0\" [style=dashed]")

(** Under the call graph, tier 1 compiles every direct [call_pre] and
    every [call_post] of [pdfkit] as a counted site; only the indirect
    [call_pre]s keep a decoder. With split i64 halves, a site that
    passes an i64 computes its halves, so tier 1 does not bind it and it
    stays generic (the native-i64 instrumentation binds them all). *)
let test_call_graph_counted () =
  let m = (Workloads.Corpus.find (Lazy.force corpus) "pdfkit").module_ in
  (* (call_pre, call_post) of each call site: does its hook pass an i64? *)
  let sites =
    List.concat_map
      (fun (f : Wasm.Ast.func) ->
         List.filter_map
           (fun instr ->
              let i64 (ft : Wasm.Types.func_type) =
                (List.mem Wasm.Types.I64T ft.params, List.mem Wasm.Types.I64T ft.results)
              in
              match instr with
              | Wasm.Ast.Call g -> Some (`Direct, i64 (Wasm.Ast.func_type_at m g))
              | CallIndirect ti -> Some (`Indirect, i64 (List.nth m.types ti))
              | _ -> None)
           f.body)
      m.funcs
  in
  Alcotest.(check bool) "pdfkit makes direct and indirect calls" true
    (List.mem_assoc `Direct sites && List.mem_assoc `Indirect sites);
  let n b = if b then 1 else 0 in
  List.iter
    (fun split ->
       let generic (_, (pre, post)) = if split then n pre + n post else 0 in
       let counted (kind, (pre, post)) =
         (if kind = `Direct && not (split && pre) then 1 else 0) + n (not (split && post))
       in
       let sum f = List.fold_left (fun acc site -> acc + f site) 0 sites in
       let s0, _ = Wasm.Tier1.count_groups () and b0, g0 = Wasm.Tier1.hook_sites () in
       let inst, _ =
         W.Runtime.instantiate
           (W.Instrument.instrument ~split_i64:split ~groups:Analyses.Call_graph.groups m)
           Analyses.Call_graph.(analysis (create ()))
       in
       ignore (Wasm.Tier1.compile_all inst : int);
       let s1, _ = Wasm.Tier1.count_groups () and b1, g1 = Wasm.Tier1.hook_sites () in
       let mode = if split then "split i64" else "native i64" in
       Alcotest.(check int) (mode ^ ": every hook site compiled")
         (2 * List.length sites) (b1 - b0 + (g1 - g0));
       Alcotest.(check int) (mode ^ ": counted direct call_pre and call_post sites")
         (sum counted) (s1 - s0);
       Alcotest.(check int) (mode ^ ": generic sites, those passing split i64 halves")
         (sum generic) (g1 - g0))
    [ false; true ]

(** Instruction coverage marks a location the first time one of its
    sites fires: the executed locations and the report read the same on
    every backend. *)
let test_coverage_backends () =
  List.iter
    (fun (name, m) ->
       let make () =
         let t = Analyses.Instruction_coverage.create () in
         ( Analyses.Instruction_coverage.analysis t,
           fun () ->
             (* every location of every body, the synthetic begin (-1)
                and end (body length) included: '+' where covered *)
             let n_imp = Wasm.Ast.num_imported_funcs m in
             let covered j (f : Wasm.Ast.func) =
               String.init
                 (List.length f.body + 2)
                 (fun k ->
                    let l = W.Location.make ~func:(n_imp + j) ~instr:(k - 1) in
                    if Analyses.Instruction_coverage.is_covered t l then '+' else '.')
             in
             Analyses.Instruction_coverage.report t m
             ^ String.concat "\n" (List.mapi covered m.funcs) )
       in
       ignore (same_on_every_backend name (W.Instrument.instrument m) make : string))
    (kitchen_and_corpus ())

let suite =
  [ case "corpus: compiled = reference" test_corpus_differential;
    case "kitchen sink, split i64" test_kitchen_sink_split;
    case "kitchen sink, native i64" test_kitchen_sink_nosplit;
    case "spec coverage across tested modules" test_spec_coverage;
    case "tier 1 binds >= 95% of corpus hook sites" test_site_binding;
    case "counted reports: same bytes on every backend" test_counted_reports;
    case "counted reports on trapping runs" test_counted_trapping;
    case "count groups: >= 4 instruction-mix sites per group on PolyBench" test_count_group_size;
    case "elision: liveness and restore rules on every backend" test_elision_cases;
    case "elision: a faulted site keeps its reads" test_elision_faulted;
    case "elision: counted PolyBench bodies drop their temporary stores" test_elided_stores;
    case "call graph: same edges on every backend" test_call_graph_backends;
    case "call graph: a direct call that never runs adds no edge" test_call_graph_unrun;
    case "call graph: an indirect call's edge stays dashed" test_call_graph_indirect;
    case "call graph: pdfkit counts every direct call_pre and call_post" test_call_graph_counted;
    case "instruction coverage: same locations on every backend" test_coverage_backends ]
