(** The four workloads and the sample that measures them.

    Every workload exercises every layer, so that every end-to-end
    metric exists on every workload; they differ in program size, hook
    density and how many times each leg repeats. One sample is: the
    probe set-up and then the AOT set-up of every program, validation of
    the instrumented output, then four run legs in rotating order — AOT
    passes, probe passes, uninstrumented passes and a batch served by
    [Serve.Farm]. Every execution is checked. A traced sample adds the
    extra legs that the per-layer split is derived from. *)

open Wasm
module W = Wasabi
module H = Wasabi.Hook

type analysis_kind = Mix | Calls

type spec = {
  name : string;
  programs : seed:int -> (string * Ast.module_) list;
  groups : H.Group_set.t;
  analysis : analysis_kind;
  setup_reps : int;  (** set-ups of every program per sample, per backend *)
  aot_reps : int;  (** AOT passes per sample *)
  probe_reps : int;
  base_reps : int;
  serve_runs : int;  (** [Farm.run] executions per program per sample *)
}

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(* The seed shifts the constant [c] of every PolyBench initialiser
   [(e + c) mod n]. Array contents and checksums change with the seed;
   control flow, retired-instruction counts and encoded sizes do not,
   because every kernel's loop bounds depend on n alone and the shifted
   constants stay below 64 (one LEB128 byte). Drawing different kernels
   per seed would change the work tenfold between seeds, which the
   seed-to-seed spread of every metric would then measure. *)
module Mc = Minic.Mc_ast

let rec shift_expr d (e : Mc.expr) : Mc.expr =
  let s = shift_expr d in
  match e with
  | Binop (Rem, Binop (Add, a, Int c), m) -> Binop (Rem, Binop (Add, s a, Int (Int32.add c d)), s m)
  | Binop (o, a, b) -> Binop (o, s a, s b)
  | Unop (o, a) -> Unop (o, s a)
  | Cast (t, a) -> Cast (t, s a)
  | Load (t, a) -> Load (t, s a)
  | Load8u a -> Load8u (s a)
  | Call (f, args) -> Call (f, List.map s args)
  | CallIndirect (a, ts, r) -> CallIndirect (s a, ts, r)
  | Select (a, b, c) -> Select (s a, s b, s c)
  | MemGrow a -> MemGrow (s a)
  | Int _ | Long _ | Single _ | Float _ | Var _ | Global _ | MemSize -> e

let rec shift_stmt d (st : Mc.stmt) : Mc.stmt =
  let e = shift_expr d and b = List.map (shift_stmt d) in
  match st with
  | Assign (x, a) -> Assign (x, e a)
  | SetGlobal (x, a) -> SetGlobal (x, e a)
  | Store (t, a, v) -> Store (t, e a, e v)
  | Store8 (a, v) -> Store8 (e a, e v)
  | If (c, t, f) -> If (e c, b t, b f)
  | While (c, body) -> While (e c, b body)
  | For (x, lo, hi, body) -> For (x, e lo, e hi, b body)
  | ForStep (x, lo, hi, step, body) -> ForStep (x, e lo, e hi, e step, b body)
  | Switch (x, cases, dflt) -> Switch (e x, List.map b cases, b dflt)
  | Return r -> Return (Option.map e r)
  | Expr a -> Expr (e a)
  | Break | Continue -> st

let shift_inits d (p : Mc.program) =
  let shift_body (f : Mc.func_def) = { f with fd_body = List.map (shift_stmt d) f.fd_body } in
  { p with pr_funcs = List.map shift_body p.pr_funcs }

let kernel ~n name =
  match List.find_opt (fun g -> fst (g ~n:2) = name) Workloads.Polybench.generators with
  | Some g -> snd (g ~n)
  | None -> invalid_arg ("unknown PolyBench kernel " ^ name)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The named kernels at size [n], each with its initialisers shifted by
    a seeded amount in [1, 48], plus the real-world pair when asked, in
    a seeded order. *)
let seeded_set ~n names ~realworld ~seed =
  let rng = Random.State.make [| seed |] in
  let ks =
    List.map
      (fun name ->
         let d = Int32.of_int (1 + Random.State.int rng 48) in
         (name, Minic.Mc_compile.compile (shift_inits d (kernel ~n name))))
      names
  in
  let rw = if realworld then Workloads.Realworld.all () else [] in
  shuffle rng (ks @ rw)

(* Table 5 at scale: each real-world program replicated to 25 copies of
   its functions (about 0.15 MB in, 0.58 MB instrumented for both). At
   100 copies the instrumented instances alone hold 230 MB live, and the
   collector's work on that heap swamps every timing. Their inputs are
   built into the programs, so the seed only orders them. *)
let table5_set ~seed =
  let big (name, m) =
    (name ^ " x25", Bench_support.Support.replicate_module m ~copies:24)
  in
  shuffle (Random.State.make [| seed |]) (List.map big (Workloads.Realworld.all ()))

let hook_kernels = [ "gemm"; "jacobi-2d"; "covariance"; "gramschmidt"; "nussinov"; "trmm" ]

(* PolyBench kernels that retire 20k-100k instructions at n = 8 *)
let serve_kernels = [ "2mm"; "gemm"; "jacobi-2d"; "syr2k" ]

let workloads =
  [ (* the front end (decode to tier-1 compile) does most of the work *)
    { name = "table5-large";
      programs = table5_set; groups = H.all; analysis = Mix;
      setup_reps = 4; aot_reps = 1; probe_reps = 1; base_reps = 8; serve_runs = 1 };
    (* hook dispatch and analysis callbacks dominate the run legs *)
    { name = "dense-hooks";
      programs = seeded_set ~n:16 hook_kernels ~realworld:true; groups = H.all; analysis = Mix;
      setup_reps = 32; aot_reps = 1; probe_reps = 1; base_reps = 32; serve_runs = 1 };
    (* the same programs, but hooks fire on a small share of instructions *)
    { name = "rare-hooks";
      programs = seeded_set ~n:16 hook_kernels ~realworld:true;
      groups = Analyses.Call_graph.groups; analysis = Calls;
      setup_reps = 48; aot_reps = 24; probe_reps = 24; base_reps = 32; serve_runs = 8 };
    (* thousands of short restore-isolated runs instead of a few long ones *)
    { name = "serve-batch";
      programs = seeded_set ~n:8 serve_kernels ~realworld:false; groups = H.all; analysis = Mix;
      setup_reps = 64; aot_reps = 8; probe_reps = 8; base_reps = 128; serve_runs = 50 } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Programs and analyses                                               *)
(* ------------------------------------------------------------------ *)

type program = {
  p_name : string;
  p_module : Ast.module_;
  p_bytes : string;  (** the original binary a user hands in *)
  p_reference : float;  (** checksum of an uninstrumented tier-0 run *)
  p_base : Interp.instance;  (** uninstrumented, tier 1 *)
}

let checksum = function [ Value.F64 x ] -> x | _ -> nan
let run inst = checksum (Interp.invoke_export inst "run" [])

let prepare (name, m) =
  let reference = run (Interp.instantiate ~imports:[] m) in
  let base = Interp.instantiate ~imports:[] m in
  ignore (Tier1.compile_all base : int);
  { p_name = name; p_module = m; p_bytes = Encode.encode m; p_reference = reference; p_base = base }

(** An analysis and a summary of what it observed, comparable between
    backends: instructions per run for the instruction mix, the edge set
    for the call graph. *)
type observer = { analysis : W.Analysis.t; summary : runs:int -> string }

let observer = function
  | Mix ->
    let st = Analyses.Instruction_mix.create () in
    { analysis = Analyses.Instruction_mix.analysis st;
      summary =
        (fun ~runs ->
           let t = Analyses.Instruction_mix.total st in
           if runs > 0 && t mod runs = 0 then Printf.sprintf "%d instructions/run" (t / runs)
           else Printf.sprintf "%d instructions in %d runs" t runs) }
  | Calls ->
    let st = Analyses.Call_graph.create () in
    { analysis = Analyses.Call_graph.analysis st;
      summary =
        (fun ~runs:_ ->
           List.sort compare (Analyses.Call_graph.edges st)
           |> List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b)
           |> String.concat " ") }

let probe_spec groups =
  { Obs.Probe.sp_groups =
      (if H.Group_set.equal groups H.all then []
       else List.map H.group_name (H.Group_set.elements groups));
    sp_func = None; sp_loc = None; sp_nth = 1 }

(* ------------------------------------------------------------------ *)
(* One sample                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  spec : spec;
  seed : int;
  progs : program array;
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
  mutable complaints : string list;  (** first failures, for the log *)
}

let check ctx ?(weight = 1) ok what =
  ctx.attempted <- ctx.attempted + weight;
  if not ok then begin
    ctx.failed <- ctx.failed + weight;
    if List.length ctx.complaints < 10 then ctx.complaints <- what () :: ctx.complaints
  end

type aot = {
  res : W.Instrument.result;
  out_bytes : int;
  inst : Interp.instance;
  obs : observer;
}

type probed = {
  pinst : Interp.instance;
  ctrl : W.Runtime.Probe.controller;
  entry : Obs.Probe.entry;
  pobs : observer;
}

(** What one sample measured. The counters feed the per-layer split. *)
type sample = {
  setup : Stats.lap;
  probe_setup : Stats.lap;
  aot_leg : Stats.lap;
  probe_leg : Stats.lap;
  base_leg : Stats.lap;
  serve_leg : Stats.lap;
  other_legs : Stats.lap;  (** output validation *)
  programs : int;
  served : int;
  bytes_in : int;
  bytes_out : int;
  hooks : int;
  instrument_words : float;
  compiled : int;
  bodies : int;
  base_steps : int;  (** per uninstrumented pass *)
  aot_words : float;  (** allocated per AOT pass *)
  hook_events : int;  (** per AOT pass; counted in traced samples only *)
}

(** The legs every sample runs, traced or not. *)
let main_legs s =
  List.fold_left Stats.add Stats.zero
    [ s.setup; s.probe_setup; s.aot_leg; s.probe_leg; s.base_leg; s.serve_leg; s.other_legs ]

let main_wall s = (main_legs s).wall

let wall_over_cpu s =
  let t = main_legs s in
  t.wall /. t.cpu

let rotate k xs =
  let n = List.length xs in
  let k = ((k mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) xs @ List.filteri (fun i _ -> i < k) xs

let bodies_of m = List.length m.Ast.funcs

(** [f ()] [reps] times; the last result. Earlier results are garbage
    before the next call starts. *)
let repeat reps f =
  for _ = 2 to reps do
    ignore (f ())
  done;
  f ()

let aot_setup ctx (p : program) =
  let call name f = Spans.call ctx.spans name f in
  let m = call "decode" (fun () -> Decode.decode p.p_bytes) in
  call "validate" (fun () -> Validate.validate_module m);
  let w0 = Stats.allocated_words () in
  let res = call "instrument" (fun () -> W.Instrument.instrument ~groups:ctx.spec.groups m) in
  let words = Stats.allocated_words () -. w0 in
  let out = call "encode" (fun () -> Encode.encode res.W.Instrument.instrumented) in
  let obs = observer ctx.spec.analysis in
  let inst, _rt = call "instantiate" (fun () -> W.Runtime.instantiate res obs.analysis) in
  let compiled = call "tier1.compile" (fun () -> Tier1.compile_all inst) in
  ({ res; out_bytes = String.length out; inst; obs }, words, compiled)

let probe_setup ctx (p : program) =
  let call name f = Spans.call ctx.spans name f in
  let m = call "decode" (fun () -> Decode.decode p.p_bytes) in
  call "validate" (fun () -> Validate.validate_module m);
  let pinst = call "instantiate" (fun () -> Interp.instantiate ~imports:[] m) in
  let compiled = call "tier1.compile" (fun () -> Tier1.compile_all pinst) in
  let pobs = observer ctx.spec.analysis in
  let ctrl = call "probe.create" (fun () -> W.Runtime.Probe.create pinst pobs.analysis) in
  let entry =
    call "probe.attach" (fun () -> W.Runtime.Probe.attach ctrl (probe_spec ctx.spec.groups))
  in
  ({ pinst; ctrl; entry; pobs }, compiled)

(** [reps] passes over [insts]; every result is checked against the
    reference checksum after the timed loop. *)
let passes ctx name reps insts =
  let results, lap =
    Spans.leg ctx.spans name (fun () ->
      Spans.call ctx.spans ("run." ^ name) (fun () ->
        Array.init reps (fun _ -> Array.map run insts)))
  in
  Array.iter
    (Array.iteri (fun i got ->
       let want = ctx.progs.(i).p_reference in
       check ctx (Float.equal got want) (fun () ->
         Printf.sprintf "%s: %s returned %h, reference %h" name ctx.progs.(i).p_name got want)))
    results;
  lap

let serve_batch ctx ~domains ~span (a : aot) =
  let observers = Array.init domains (fun _ -> observer ctx.spec.analysis) in
  let st =
    Spans.call ctx.spans span (fun () ->
      Serve.Farm.run ~tier1:true ~mode:Serve.Farm.Sync ~domains ~runs:ctx.spec.serve_runs
        ~entry:"run" ~make_analysis:(fun w -> observers.(w).analysis) a.res)
  in
  (st, observers)

(* ---- extra legs of a traced sample ---- *)

(** Snapshot restores timed per program in the [serve_parts] leg. *)
let restores = 8

(** The legs the per-layer split is derived from: AOT and probe passes
    with the empty analysis (dispatch cost without callbacks), a
    counting AOT pass (events per pass), tier-0 passes of all three
    backends, the serve worker's set-up steps one by one, a 2-domain
    farm batch, and detaching the sample's probes. Times come from the
    spans; the result is the number of hook events in one AOT pass. *)
let extras ctx (aots : aot array) (probes : probed array) =
  let sp = ctx.spans and k = ctx.spec in
  let call name f = Spans.call sp name f in
  let setup_leg f = fst (Spans.leg sp "extra_setup" f) in
  let aot_insts ~tier1 make =
    setup_leg (fun () ->
      Array.map
        (fun a ->
           let inst, _ = call "instantiate" (fun () -> W.Runtime.instantiate a.res (make ())) in
           if tier1 then ignore (call "tier1.compile" (fun () -> Tier1.compile_all inst) : int);
           inst)
        aots)
  in
  let probe_insts ~tier1 make =
    setup_leg (fun () ->
      Array.map
        (fun p ->
           let inst = call "instantiate" (fun () -> Interp.instantiate ~imports:[] p.p_module) in
           if tier1 then ignore (call "tier1.compile" (fun () -> Tier1.compile_all inst) : int);
           let ctrl = call "probe.create" (fun () -> W.Runtime.Probe.create inst (make ())) in
           ignore
             (call "probe.attach" (fun () -> W.Runtime.Probe.attach ctrl (probe_spec k.groups)));
           inst)
        ctx.progs)
  in
  let fresh () = (observer k.analysis).analysis in
  let empty () = W.Analysis.default in
  ignore (passes ctx "aot_default" k.aot_reps (aot_insts ~tier1:true empty) : Stats.lap);
  let events = ref 0 in
  let counting () = W.Analysis.reify (fun _ -> incr events) in
  ignore (passes ctx "aot_count" 1 (aot_insts ~tier1:true counting) : Stats.lap);
  ignore (passes ctx "aot_t0" 1 (aot_insts ~tier1:false fresh) : Stats.lap);
  ignore (passes ctx "probe_default" k.probe_reps (probe_insts ~tier1:true empty) : Stats.lap);
  ignore (passes ctx "probe_t0" 1 (probe_insts ~tier1:false fresh) : Stats.lap);
  let t0_bases =
    setup_leg (fun () ->
      Array.map
        (fun p -> call "instantiate" (fun () -> Interp.instantiate ~imports:[] p.p_module))
        ctx.progs)
  in
  ignore (passes ctx "base_t0" 1 t0_bases : Stats.lap);
  ignore
    (Spans.leg sp "serve_parts" (fun () ->
       Array.iter
         (fun a ->
            let _, template =
              call "instantiate" (fun () -> W.Runtime.instantiate a.res W.Analysis.default)
            in
            let inst, _ = call "fork" (fun () -> W.Runtime.fork template W.Analysis.default) in
            ignore (call "tier1.compile" (fun () -> Tier1.compile_all inst) : int);
            let snap = call "snapshot.capture" (fun () -> Snapshot.capture inst) in
            call "snapshot.restore" (fun () ->
              for _ = 1 to restores do
                Snapshot.restore snap inst
              done))
         aots)
     : unit * Stats.lap);
  ignore
    (Spans.leg sp "serve2" (fun () ->
       Array.iter (fun a -> ignore (serve_batch ctx ~domains:2 ~span:"serve.farm2" a)) aots)
     : unit * Stats.lap);
  ignore
    (Spans.leg sp "teardown" (fun () ->
       Array.iter
         (fun p -> call "probe.detach" (fun () -> W.Runtime.Probe.detach p.ctrl p.entry))
         probes)
     : unit * Stats.lap);
  !events

let sample ctx ~index ~traced : sample =
  let sp = ctx.spans and k = ctx.spec in
  Spans.set_on sp traced;
  let run_sample () =
    let n = Array.length ctx.progs in
    let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs in
    (* The set-up legs keep one order. The collector's work in the second
       grows with the instances the first leaves live, so rotating them
       would split the second leg's times into two modes; the probed
       instances, which the AOT set-up then works beside, are the smaller. *)
    let probe_r, probe_setup =
      Spans.leg sp "probe_setup" (fun () ->
        repeat k.setup_reps (fun () -> Array.map (probe_setup ctx) ctx.progs))
    in
    let aot_r, setup =
      Spans.leg sp "aot_setup" (fun () ->
        repeat k.setup_reps (fun () -> Array.map (aot_setup ctx) ctx.progs))
    in
    let aots = Array.map (fun (a, _, _) -> a) aot_r and probes = Array.map fst probe_r in
    let valid, other_legs =
      Spans.leg sp "check_out" (fun () ->
        Array.map
          (fun a ->
             Spans.call sp "validate.out" (fun () ->
               Validate.is_valid a.res.W.Instrument.instrumented))
          aots)
    in
    Array.iteri
      (fun i ok ->
         check ctx ok (fun () -> ctx.progs.(i).p_name ^ ": instrumented module does not validate"))
      valid;
    let aot_leg = ref Stats.zero and probe_leg = ref Stats.zero in
    let base_leg = ref Stats.zero and serve_leg = ref Stats.zero in
    let base_steps = ref 0 and aot_words = ref 0.0 and served = ref [||] in
    let run_legs =
      [ (fun () ->
          let w0 = Stats.allocated_words () in
          aot_leg := passes ctx "aot" k.aot_reps (Array.map (fun a -> a.inst) aots);
          aot_words := (Stats.allocated_words () -. w0) /. float_of_int k.aot_reps);
        (fun () ->
          probe_leg := passes ctx "probe" k.probe_reps (Array.map (fun p -> p.pinst) probes));
        (fun () ->
          let bases = Array.map (fun p -> p.p_base) ctx.progs in
          let steps () = Array.fold_left (fun a i -> a + i.Interp.steps) 0 bases in
          let s0 = steps () in
          base_leg := passes ctx "base" k.base_reps bases;
          base_steps := (steps () - s0) / k.base_reps);
        (fun () ->
          let r, lap =
            Spans.leg sp "serve" (fun () ->
              Array.map (serve_batch ctx ~domains:1 ~span:"serve.farm") aots)
          in
          served := r;
          serve_leg := lap) ]
    in
    List.iter (fun leg -> leg ()) (rotate (ctx.seed + index) run_legs);
    for i = 0 to n - 1 do
      let name = ctx.progs.(i).p_name in
      let a = aots.(i).obs.summary ~runs:k.aot_reps in
      let p = probes.(i).pobs.summary ~runs:k.probe_reps in
      check ctx (a = p) (fun () ->
        Printf.sprintf "%s: AOT analysis saw %s, probes saw %s" name a p);
      let (st : Serve.Farm.stats), observers = !served.(i) in
      let got = observers.(0).summary ~runs:st.st_runs in
      check ctx ~weight:k.serve_runs
        (st.st_faults = 0 && st.st_runs = k.serve_runs && got = a)
        (fun () ->
           Printf.sprintf "%s: served %d runs, %d faults, analysis saw %s, AOT saw %s" name
             st.st_runs st.st_faults got a)
    done;
    let hook_events = if traced then extras ctx aots probes else 0 in
    { setup; probe_setup; aot_leg = !aot_leg;
      probe_leg = !probe_leg; base_leg = !base_leg; serve_leg = !serve_leg; other_legs;
      programs = n; served = n * k.serve_runs;
      bytes_in = sum (fun p -> String.length p.p_bytes) ctx.progs;
      bytes_out = sum (fun x -> x.out_bytes) aots;
      hooks = sum (fun x -> x.res.W.Instrument.metadata.W.Metadata.num_hooks) aots;
      instrument_words = Array.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 aot_r;
      compiled = sum (fun (_, _, c) -> c) aot_r + sum snd probe_r;
      bodies =
        sum (fun x -> bodies_of x.res.W.Instrument.instrumented) aots
        + sum (fun p -> bodies_of p.p_module) ctx.progs;
      base_steps = !base_steps; aot_words = !aot_words; hook_events }
  in
  Spans.sample sp run_sample
