(** Tier-1 execution: closure compilation of pre-decoded function bodies.

    Each function's xinstr stream is translated — once, when the
    tier-up policy decides the function is hot — into a tree of
    direct-threaded OCaml closures: one chained closure per basic
    block, with branches pre-resolved to the target block's closure
    and taken as OCaml tail calls. The tier-0 dispatch loop
    ({!Interp.exec_body}) remains the reference and deopt path; any
    body the compiler cannot handle stays on it permanently.

    What makes the compiled form faster than the dispatch loop:

    - {b No dispatch.} The per-instruction [match] disappears; each
      operation is a closure invoked in a straight chain, and operator
      sub-dispatch (which [ibinop]? which relop?) is resolved at
      compile time — the hottest operators are inlined directly into
      the emitted closure, the rest go through {!Eval_numeric}'s
      operator tables.
    - {b Unboxed slots.} In a validated module both the operand-stack
      height {e and} the value type at every program point are
      compile-time constants, so each stack slot and local is pinned
      to a typed scratch array: i32 values live as sign-extended
      native [int]s in [id]/[il], f64 values as unboxed [float]s in
      [fd]/[fl], and only the rare i64/f32 values keep their boxed
      {!Value.t} form on the instance stack. Straight-line arithmetic,
      comparisons, loads and stores therefore run allocation-free;
      boxing happens only at returns (one boxed result per call),
      globals, the generic fallback operators and calls that take the
      boxed entry (below).
    - {b No label stack.} Branch targets, the values they carry and
      the heights they cut back to are all static; a taken branch is a
      (possibly empty) slot copy followed by a tail call. Loop
      back-edges jump to the target closure directly (blocks are
      compiled in increasing order, so a back-edge target is final);
      forward edges go through the target's cell.

    The i32 representation invariant: a slot of type i32 holds the
    value sign-extended to the native int (bits 31..62 replicate bit
    31). {!Eval_numeric.norm32} re-canonicalises after arithmetic,
    [land 0xFFFFFFFF] produces the unsigned reading for addresses and
    unsigned comparisons, and [Int32.of_int]/[Int32.to_int] convert
    exactly at the boxed boundary.

    Fuel, step counts and profiler site counts are charged with
    exactly the tier-0 boundaries: a block entered at position [sb]
    charges [c_run_len.(sb)] if and only if [sb >= charged], where
    [charged] mirrors the interpreter's [charged_upto] (taken branches
    reset it, fall-through edges keep it). Out-of-fuel exhaustion
    therefore cuts both tiers off at the same instruction, which is
    what lets the differential oracle compare exhausted runs too.

    The deopt contract: a compiled body ({!Interp.compiled_body}) has
    two entries over one frame constructor. The boxed entry takes its
    arguments boxed at the frame base, where {!Interp.call_wasm} leaves
    them; the typed entry copies them from a tier-1 caller's typed
    slots. Both leave boxed results at the frame base and raise traps
    and exhaustion as the same exceptions as [exec_body], so tier-0 and
    tier-1 frames interleave freely on one call stack — a compiled
    function calling an interpreted one and vice versa. A call within
    the instance picks the entry per call from the callee's tier state
    ([local_call]): typed into a compiled body while the instance has
    no profiler and no deopt-on-fault, boxed through [call_wasm]
    otherwise, so [set_tier], profilers and deopt keep their effect.

    Engine probes ({!Interp.probe_hooks}) compile into the same closures:
    at a probe site, and only there, the operands and the local its
    event reads are boxed onto the instance stack / locals array and the
    event fires. An unprobed body compiles to exactly the closures it
    would without probe support. Probed bodies have no tier-0 form.

    {b The passes.} [compile_exn] runs one pass after another, each a
    function over the body's arrays whose typed result only later passes
    read: [analyze] (heights, type stacks, labels), [blocks] (basic
    blocks), [bind] (host calls bound to site entries), [elide] (loads of
    a value the slot still holds), [dead_stores] (stores no surviving
    read needs), [plan] (superinstructions), [emit_body] (the block
    closures and their count groups) and [frames] (the frame
    constructor). Each section below documents its pass. *)

open Types
open Interp

(** Raised (internally) when a body uses a shape the compiler does not
    handle; {!compile} turns it into [None] and the function stays on
    tier 0. *)
exception Unsupported

let default_threshold = 32

type label = {
  l_target : int;  (** branch target: absolute instruction index *)
  l_height : int;  (** operand height the branch cuts back to *)
  l_ty : value_type option;  (** type of the single carried value *)
}

type frame = {
  f_label : label;
  f_bt : Ast.block_type;  (** result type of the block *)
  f_ts : value_type list;  (** type stack below the label at entry *)
  f_entry_dead : bool;
  f_loop : bool;
}

let bt_arity : Ast.block_type -> int = function None -> 0 | Some _ -> 1

let type_of_value : Value.t -> value_type = function
  | Value.I32 _ -> I32T
  | Value.I64 _ -> I64T
  | Value.F32 _ -> F32T
  | Value.F64 _ -> F64T

(** Source and destination types of a conversion operator. *)
let cvt_types : Ast.cvtop -> value_type * value_type = function
  | Ast.I32WrapI64 -> (I64T, I32T)
  | Ast.I32TruncF32S | Ast.I32TruncF32U | Ast.I32TruncSatF32S
  | Ast.I32TruncSatF32U ->
    (F32T, I32T)
  | Ast.I32TruncF64S | Ast.I32TruncF64U | Ast.I32TruncSatF64S
  | Ast.I32TruncSatF64U ->
    (F64T, I32T)
  | Ast.I64ExtendI32S | Ast.I64ExtendI32U -> (I32T, I64T)
  | Ast.I64TruncF32S | Ast.I64TruncF32U | Ast.I64TruncSatF32S
  | Ast.I64TruncSatF32U ->
    (F32T, I64T)
  | Ast.I64TruncF64S | Ast.I64TruncF64U | Ast.I64TruncSatF64S
  | Ast.I64TruncSatF64U ->
    (F64T, I64T)
  | Ast.F32ConvertI32S | Ast.F32ConvertI32U -> (I32T, F32T)
  | Ast.F32ConvertI64S | Ast.F32ConvertI64U -> (I64T, F32T)
  | Ast.F32DemoteF64 -> (F64T, F32T)
  | Ast.F64ConvertI32S | Ast.F64ConvertI32U -> (I32T, F64T)
  | Ast.F64ConvertI64S | Ast.F64ConvertI64U -> (I64T, F64T)
  | Ast.F64PromoteF32 -> (F32T, F64T)
  | Ast.I32ReinterpretF32 -> (F32T, I32T)
  | Ast.I64ReinterpretF64 -> (F64T, I64T)
  | Ast.F32ReinterpretI32 -> (I32T, F32T)
  | Ast.F64ReinterpretI64 -> (I64T, F64T)

(** {1 Pass [analyze]: static heights and types}

    A validator-style walk over the original instruction stream
    computing, for every reachable instruction boundary (the body's end
    included), the operand stack height and the type stack (top first),
    and before every instruction the enclosing label environment.
    The type stack and the label environment are kept only where
    codegen reads them: the type stack at [select], after the body and,
    in a probed body, at every pc (its probe sites box operands by
    type); the labels at branches.
    Heights are [-1] on unreachable boundaries; blocks
    starting there compile to an engine-bug trap (nothing can jump to
    them). Dead stretches are revived at the [End] of a block/if frame
    exactly as in validation, because branches may still target the
    block's end. *)

(** A body's engine-probe events, dense per pc ([pre] and [post] are
    empty in an unprobed body). *)
type probes = {
  probed : bool;
  pre : probe_event list array;
  post : probe_event list array;
  enter : probe_event list;
  exit : probe_event list;
}

(** What [analyze] finds of a body: the input of every later pass. *)
type body = {
  fid : int;
  code : code;
  xbody : xinstr array;
  heights : int array;
  types_at : value_type list array;
  frames_at : frame list array;
  max_h : int;
  ltypes : value_type array;  (** parameter and declared-local types *)
  pr : probes;
}

let analyze (inst : instance) (fid : int) : body =
  let code = inst.inst_code.(fid) in
  let body = code.c_body in
  let n = Array.length body in
  let end_of = code.c_jumps.end_of in
  let dense = Option.is_some code.c_probe in
  let ltypes = Array.of_list (code.c_type.params @ code.c_func.Ast.locals) in
  let heights = Array.make (n + 1) (-1) in
  let types_at = Array.make (n + 1) [] in
  let frames_at = Array.make (max n 1) [] in
  let frames = ref [] in
  let h = ref 0 in
  let ts = ref [] in
  let dead = ref false in
  let max_h = ref 0 in
  let pop_ts () =
    match !ts with [] -> raise Unsupported | x :: r -> ts := r; x
  in
  let push t = ts := t :: !ts in
  (* [k] operands popped; then, by [pop_push], one of type [t] pushed *)
  let pop k =
    h := !h - k;
    if not !dead then for _ = 1 to k do ignore (pop_ts ()) done
  in
  let pop_push k t =
    h := !h - k + 1;
    if not !dead then begin
      for _ = 1 to k do ignore (pop_ts ()) done;
      push t
    end
  in
  let call ft ~extra =
    pop (extra + List.length ft.params);
    h := !h + List.length ft.results;
    if not !dead then List.iter push ft.results
  in
  let open_frame l bt loop =
    frames := { f_label = l; f_bt = bt; f_ts = !ts; f_entry_dead = !dead; f_loop = loop } :: !frames
  in
  for pc = 0 to n - 1 do
    if not !dead then begin
      heights.(pc) <- !h;
      if dense then types_at.(pc) <- !ts;
      (match code.c_xbody.(pc) with
       | XBr _ | XBrIf _ | XBrTable _ -> frames_at.(pc) <- !frames
       | XSelect -> types_at.(pc) <- !ts
       | _ -> ());
      if !h > !max_h then max_h := !h
    end;
    (match body.(pc) with
     | Ast.Unreachable | Ast.Br _ | Ast.Return -> dead := true
     | Ast.Nop | Ast.LocalTee _ | Ast.Unary _ -> ()
     | Ast.Block bt -> open_frame { l_target = end_of.(pc) + 1; l_height = !h; l_ty = bt } bt false
     | Ast.Loop bt ->
       (* a loop label carries no values in the MVP *)
       open_frame { l_target = pc + 1; l_height = !h; l_ty = None } bt true
     | Ast.If bt ->
       pop 1;
       open_frame { l_target = end_of.(pc) + 1; l_height = !h; l_ty = bt } bt false
     | Ast.Else ->
       (match !frames with
        | f :: _ ->
          h := f.f_label.l_height;
          ts := f.f_ts;
          dead := f.f_entry_dead
        | [] -> raise Unsupported)
     | Ast.End ->
       (match !frames with
        | f :: rest ->
          frames := rest;
          if !dead && not f.f_loop then begin
            (* the end can still be reached by branches to the label *)
            h := f.f_label.l_height + bt_arity f.f_bt;
            ts := (match f.f_bt with Some t -> t :: f.f_ts | None -> f.f_ts);
            dead := f.f_entry_dead
          end
          (* a dead loop end stays dead: nothing targets a loop's end *)
        | [] -> raise Unsupported)
     | Ast.BrIf _ | Ast.Drop | Ast.LocalSet _ | Ast.GlobalSet _ | Ast.Binary _ -> pop 1
     | Ast.BrTable _ ->
       pop 1;
       dead := true
     | Ast.Call fidx -> call (func_type_of inst.inst_funcs.(fidx)) ~extra:0
     | Ast.CallIndirect tidx -> call inst.inst_types.(tidx) ~extra:1
     | Ast.Select ->
       h := !h - 2;
       if not !dead then begin
         ignore (pop_ts ());
         let t = pop_ts () in
         ignore (pop_ts ());
         push t
       end
     | Ast.LocalGet x ->
       incr h;
       if not !dead then
         if x < Array.length ltypes then push ltypes.(x) else raise Unsupported
     | Ast.GlobalGet x ->
       incr h;
       if not !dead then push inst.inst_globals.(x).g_type.content
     | Ast.Load op -> pop_push 1 op.Ast.lty
     | Ast.Store _ -> pop 2
     | Ast.MemorySize -> pop_push 0 I32T
     | Ast.MemoryGrow | Ast.Test _ -> pop_push 1 I32T
     | Ast.Compare _ -> pop_push 2 I32T
     | Ast.Const v -> pop_push 0 (type_of_value v)
     | Ast.Convert op -> pop_push 1 (snd (cvt_types op)));
    if not !dead then begin
      if !h < 0 then raise Unsupported;
      (* the two stacks must stay in lock step: a divergence here would
         make the typed-slot codegen write out of bounds *)
      if List.length !ts <> !h then raise Unsupported
    end
  done;
  if not !dead then begin
    heights.(n) <- !h;
    types_at.(n) <- !ts;
    if !h > !max_h then max_h := !h
  end;
  let pr =
    match code.c_probe with
    | None -> { probed = false; pre = [||]; post = [||]; enter = []; exit = [] }
    | Some ph ->
      let pre = Array.make n [] and post = Array.make n [] in
      Array.iter
        (fun s ->
           pre.(s.site_pc) <- s.site_pre;
           post.(s.site_pc) <- s.site_post)
        ph.ph_sites;
      { probed = true; pre; post; enter = ph.ph_enter; exit = ph.ph_exit }
  in
  { fid; code; xbody = code.c_xbody; heights; types_at; frames_at; max_h = !max_h; ltypes; pr }

(** {1 Pass [blocks]: basic blocks}

    A block starts at 0, after every control transfer, and at every
    label target (= tier 0's fresh-charge points plus the positions
    branches resolve to). The body's end starts the last block, the
    implicit return. *)
type blocks = {
  block_of : int array;  (** the block a pc starts, the body's end included; [-1] inside one *)
  starts : int array;  (** each block's first pc *)
}

let blocks (b : body) : blocks =
  let body = b.code.c_body and end_of = b.code.c_jumps.end_of in
  let n = Array.length body in
  (* the starts are marked, then numbered in order *)
  let block_of = Array.make (n + 1) (-1) in
  let start pc = block_of.(pc) <- 0 in
  start 0;
  start n;
  for pc = 0 to n - 1 do
    match body.(pc) with
    | Ast.Block _ -> start (end_of.(pc) + 1)
    | Ast.If _ | Ast.Loop _ ->
      start (pc + 1);
      start (end_of.(pc) + 1)
    | Ast.Else | Ast.Br _ | Ast.BrIf _ | Ast.BrTable _ | Ast.Return | Ast.Unreachable ->
      start (pc + 1)
    | _ -> ()
  done;
  let nblocks = ref 0 in
  for pc = 0 to n do
    if block_of.(pc) >= 0 then begin
      block_of.(pc) <- !nblocks;
      incr nblocks
    end
  done;
  let starts = Array.make !nblocks 0 in
  for pc = 0 to n do
    if block_of.(pc) >= 0 then starts.(block_of.(pc)) <- pc
  done;
  { block_of; starts }

(** The blocks that compile to code: those [analyze] reached, the
    body's end excluded. *)
let reachable (b : body) (bl : blocks) blk =
  let sb = bl.starts.(blk) in
  sb < Array.length b.xbody && b.heights.(sb) >= 0

(** {1 Pass [bind]: bound host call sites}

    A call to a result-less host function whose arguments are all
    pushed by constants and [local.get]s inside the call's block, at no
    probe site, compiles (pushes included) to the callee's
    site-specialised entry: nothing is boxed and the pushes never
    materialise. One backward walk from each call finds the run. A body
    calling no host function with a binder binds nothing and allocates
    nothing. *)
type binding = {
  runs : (ectx site_entry * int) option array;
      (** at a run's first push, its entry and the call's pc; [[||]]
          when nothing binds *)
  nbound : int;
  ngeneric : int;  (** calls to a binding callee that keep the array ABI *)
}

let bound_at (bd : binding) p = if Array.length bd.runs = 0 then None else bd.runs.(p)

let quiet (pr : probes) p =
  not pr.probed || (match pr.pre.(p), pr.post.(p) with [], [] -> true | _ -> false)

let bind (inst : instance) (b : body) (bl : blocks) : binding =
  let xbody = b.xbody and ltypes = b.ltypes in
  let nlocals = Array.length ltypes in
  let site_arg ty p : ectx site_arg option =
    match xbody.(p) with
    | XConst v when Value.type_of v = ty -> Some (Site_const v)
    | XLocalGet x when x < nlocals && ltypes.(x) = ty ->
      Some
        (match ty with
         | I32T -> Site_i32 (fun ctx -> Array.unsafe_get ctx.il x)
         | F64T -> Site_f64 (fun ctx -> Array.unsafe_get ctx.fl x)
         | I64T | F32T -> Site_boxed (fun ctx -> Array.unsafe_get ctx.locals x))
    | _ -> None
  in
  (* the arguments of parameter types [rtys] (last first), walking back
     from the push at [p] *)
  let rec site_args p rtys acc =
    match rtys with
    | [] -> Some acc
    | ty :: rest ->
      if bl.block_of.(p + 1) >= 0 || not (quiet b.pr p) then None
      else
        match site_arg ty p with
        | Some a -> site_args (p - 1) rest (a :: acc)
        | None -> None
  in
  let runs = ref [||] and nbound = ref 0 and ngeneric = ref 0 in
  for pc = 0 to Array.length xbody - 1 do
    match xbody.(pc) with
    | XCall fidx when b.heights.(pc) >= 0 ->
      (* (a call in unreachable code compiles to nothing) *)
      (match inst.inst_funcs.(fidx) with
       | Host_func { h_bind = Some binder; h_type = { params; results }; h_nparams; _ } ->
         let p0 = pc - h_nparams in
         let entry =
           if results <> [] || p0 < 0 || not (quiet b.pr pc) then None
           else
             match site_args (pc - 1) (List.rev params) [] with
             | Some args -> binder.bind (Array.of_list args)
             | None -> None
         in
         (match entry with
          | Some e ->
            if Array.length !runs = 0 then runs := Array.make (Array.length xbody) None;
            !runs.(p0) <- Some (e, pc);
            incr nbound
          | None -> incr ngeneric)
       | _ -> ())
    | _ -> ()
  done;
  { runs = !runs; nbound = !nbound; ngeneric = !ngeneric }

(** {1 Pass [elide]: save/restore elision}

    A [local.get x] whose operand slot still holds the value of [x]
    compiles to nothing. Per block, [facts.(s)] is the local slot [s]
    holds: a [local.get], [local.set] or [local.tee] of [x] records it,
    and it is dropped by any instruction that pops or writes slot [s],
    any write to [x], any call, bound entry or firing probe event. Each
    pc gets a role: plain, elided, in a counted run or in a bound entry's. *)

let r_plain = '\000'
let r_elided = '\001'
let r_dead = '\002'
let r_counted = '\003'
let r_entry = '\004'

type roles = {
  role : Bytes.t;
  counted_runs : int;
  nelided : int;  (** instructions compiled away: elided loads and dead stores *)
}

let elide (b : body) (bl : blocks) (bd : binding) : roles =
  let xbody = b.xbody and heights = b.heights and pr = b.pr in
  let role = Bytes.make (Array.length xbody) r_plain in
  let facts = Array.make (b.max_h + 1) (-1) in
  let ftop = ref 0 and counted_runs = ref 0 and nelided = ref 0 in
  let forget_from s =
    let s = if s < 0 then 0 else s in
    for i = s to !ftop - 1 do
      facts.(i) <- -1
    done;
    if s < !ftop then ftop := s
  in
  let fires evs = List.exists (function Probe_fire _ -> true | Probe_count _ -> false) evs in
  for blk = 0 to Array.length bl.starts - 1 do
    if reachable b bl blk then begin
      forget_from 0;
      let p = ref bl.starts.(blk) in
      while !p < bl.starts.(blk + 1) do
        let q = !p in
        match bound_at bd q with
        | Some (Site_count _, cp) ->
          Bytes.fill role q (cp + 1 - q) r_counted;
          incr counted_runs;
          p := cp + 1
        | Some (Site_entry _, cp) ->
          Bytes.fill role q (cp + 1 - q) r_entry;
          forget_from 0;
          p := cp + 1
        | None ->
          let h = heights.(q) in
          if pr.probed && fires pr.pre.(q) then forget_from 0;
          (match xbody.(q) with
           | XLocalGet x ->
             if facts.(h) = x then begin
               Bytes.set role q r_elided;
               incr nelided
             end
             else begin
               facts.(h) <- x;
               if h >= !ftop then ftop := h + 1
             end
           | XLocalSet x | XLocalTee x ->
             for i = 0 to !ftop - 1 do
               if facts.(i) = x then facts.(i) <- -1
             done;
             facts.(h - 1) <- x;
             if h > !ftop then ftop := h
           | XCall _ | XCallIndirect _ -> forget_from 0
           | _ ->
             let h' = heights.(q + 1) in
             let s = (if h' < h then h' else h) - 1 in
             if s < !ftop then forget_from s);
          if pr.probed && fires pr.post.(q) then forget_from 0;
          p := q + 1
      done
    end
  done;
  { role; counted_runs = !counted_runs; nelided = !nelided }

(** {1 Pass [dead_stores]: stores no surviving read needs}

    In an unprobed body with counted runs, one backward liveness pass
    over the blocks counts only the reads that survive compilation (not
    an elided load, not the argument pushes of a counted run), and a
    store to a local no surviving read needs compiles to a pop. Liveness
    is kept per block only: [gen] (read before any write in the block),
    [kill] (written) and [live] (live on entry), 32 locals a word; each
    block's stores are then marked walking back from its live-out set.
    With [elide] this drops the AOT backend's Table 3 temporaries where
    only counted sites read them; a bound entry or a firing probe event
    reads its locals, so uncounted, faulted and profiled sites keep
    theirs. Other bodies skip the pass: without counted runs a store can lose
    only reads that an elided load replaced, which leaves few stores
    dead, and compiling uninstrumented code stays cheap. *)
let dead_stores (b : body) (bl : blocks) (r : roles) : roles =
  if r.counted_runs = 0 || b.pr.probed then r
  else begin
    let xbody = b.xbody and starts = bl.starts and role = Bytes.copy r.role in
    let nb = Array.length starts and nlocals = Array.length b.ltypes in
    let w = (nlocals + 31) lsr 5 in
    let live = Array.make (nb * w) 0 and succs = Array.make nb [] in
    let gen = Array.make (nb * w) 0 and kill = Array.make (nb * w) 0 in
    for blk = 0 to nb - 1 do
      let o = blk * w in
      if reachable b bl blk then begin
        let eb = starts.(blk + 1) in
        for q = starts.(blk) to eb - 1 do
          match xbody.(q) with
          | XLocalGet x when Bytes.get role q <> r_elided && Bytes.get role q <> r_counted ->
            if x >= nlocals then raise Unsupported;
            let i = o + (x lsr 5) and m = 1 lsl (x land 31) in
            if kill.(i) land m = 0 then gen.(i) <- gen.(i) lor m
          | (XLocalSet x | XLocalTee x) when Bytes.get role q = r_plain ->
            if x >= nlocals then raise Unsupported;
            let i = o + (x lsr 5) in
            kill.(i) <- kill.(i) lor (1 lsl (x land 31))
          | _ -> ()
        done;
        let last = eb - 1 in
        let label k =
          match List.nth_opt b.frames_at.(last) k with
          | Some f -> bl.block_of.(f.f_label.l_target)
          | None -> -1
        in
        succs.(blk) <-
          List.filter (fun t -> t >= 0)
            (match xbody.(last) with
             | XBr k -> [ label k ]
             | XBrIf k -> [ label k; blk + 1 ]
             | XBrTable tbl -> Array.to_list (Array.map label tbl)
             | XIf (e, _) | XIfElse (e, _, _) -> [ blk + 1; bl.block_of.(e) ]
             | XElse e -> [ bl.block_of.(e) ]
             | XReturn | XUnreachable -> []
             | _ -> [ blk + 1 ])
      end
    done;
    let rec union ts i acc =
      match ts with [] -> acc | t :: r -> union r i (acc lor live.((t * w) + i))
    in
    let live_out blk i = union succs.(blk) i 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for blk = nb - 1 downto 0 do
        for i = 0 to w - 1 do
          let o = (blk * w) + i in
          let v = gen.(o) lor (live_out blk i land lnot kill.(o)) in
          if v <> live.(o) then begin
            live.(o) <- v;
            changed := true
          end
        done
      done
    done;
    let out = Array.make w 0 and ndead = ref 0 in
    for blk = 0 to nb - 1 do
      if reachable b bl blk then begin
        for i = 0 to w - 1 do
          out.(i) <- live_out blk i
        done;
        for q = starts.(blk + 1) - 1 downto starts.(blk) do
          match Bytes.get role q, xbody.(q) with
          | ro, XLocalGet x when ro = r_plain || ro = r_entry ->
            out.(x lsr 5) <- out.(x lsr 5) lor (1 lsl (x land 31))
          | ro, (XLocalSet x | XLocalTee x) when ro = r_plain ->
            let m = 1 lsl (x land 31) in
            if out.(x lsr 5) land m = 0 then begin
              Bytes.set role q r_dead;
              incr ndead
            end;
            out.(x lsr 5) <- out.(x lsr 5) land lnot m
          | _ -> ()
        done
      end
    done;
    { r with role; nelided = r.nelided + !ndead }
  end
(** {1 Slot marshalling}

    The boxed/unboxed boundary, used by generic (rare) operators, call
    argument staging, result unpacking, branch value copies and
    returns. i32 slots read/write [ctx.id], f64 slots [ctx.fd], i64
    and f32 slots the boxed instance stack. *)

let read_val (ty : value_type) (s : int) : ectx -> Value.t =
  match ty with
  | I32T -> fun ctx -> Value.I32 (Int32.of_int (Array.unsafe_get ctx.id s))
  | F64T -> fun ctx -> Value.F64 (Array.unsafe_get ctx.fd s)
  | I64T | F32T -> fun ctx -> Array.unsafe_get ctx.st.data (ctx.base + s)

let write_val (ty : value_type) (s : int) : ectx -> Value.t -> unit =
  match ty with
  | I32T ->
    fun ctx v -> Array.unsafe_set ctx.id s (Int32.to_int (Value.as_i32 v))
  | F64T -> fun ctx v -> Array.unsafe_set ctx.fd s (Value.as_f64 v)
  | I64T | F32T -> fun ctx v -> Array.unsafe_set ctx.st.data (ctx.base + s) v

let copy_slot (ty : value_type) ~(src : int) ~(dst : int) : ectx -> unit =
  match ty with
  | I32T ->
    fun ctx -> Array.unsafe_set ctx.id dst (Array.unsafe_get ctx.id src)
  | F64T ->
    fun ctx -> Array.unsafe_set ctx.fd dst (Array.unsafe_get ctx.fd src)
  | I64T | F32T ->
    fun ctx ->
      let d = ctx.st.data in
      Array.unsafe_set d (ctx.base + dst) (Array.unsafe_get d (ctx.base + src))

(** Box an unboxed slot onto the instance stack (call arguments,
    returns); [None] when the slot is already boxed. *)
let box_slot (ty : value_type) (s : int) : (ectx -> unit) option =
  match ty with
  | I32T ->
    Some
      (fun ctx ->
         Array.unsafe_set ctx.st.data (ctx.base + s)
           (Value.I32 (Int32.of_int (Array.unsafe_get ctx.id s))))
  | F64T ->
    Some
      (fun ctx ->
         Array.unsafe_set ctx.st.data (ctx.base + s)
           (Value.F64 (Array.unsafe_get ctx.fd s)))
  | I64T | F32T -> None

(** Unpack a boxed stack slot into the typed scratch array (call
    results); [None] when the slot stays boxed. *)
let unbox_slot (ty : value_type) (s : int) : (ectx -> unit) option =
  match ty with
  | I32T ->
    Some
      (fun ctx ->
         Array.unsafe_set ctx.id s
           (Int32.to_int (Value.as_i32 (Array.unsafe_get ctx.st.data (ctx.base + s)))))
  | F64T ->
    Some
      (fun ctx ->
         Array.unsafe_set ctx.fd s
           (Value.as_f64 (Array.unsafe_get ctx.st.data (ctx.base + s))))
  | I64T | F32T -> None

let rec chain (fs : (ectx -> unit) list) : (ectx -> unit) option =
  match fs with
  | [] -> None
  | [ f ] -> Some f
  | f :: rest ->
    (match chain rest with
     | None -> Some f
     | Some g ->
       Some
         (fun ctx ->
            f ctx;
            g ctx))

(** [slot] (boxing or unpacking) over the values of types [tys] from
    slot [abase] on. *)
let stage slot ~abase tys =
  chain (List.concat (List.mapi (fun j ty -> Option.to_list (slot ty (abase + j))) tys))

(** [invoke] with the unboxed arguments of types [ft.params] from slot
    [abase] on boxed before it and its unboxed results unpacked after
    it. *)
let staged_call ~abase (ft : func_type) (invoke : ectx -> unit) : ectx -> unit =
  match stage box_slot ~abase ft.params, stage unbox_slot ~abase ft.results with
  | None, None -> invoke
  | Some f, None ->
    fun ctx ->
      f ctx;
      invoke ctx
  | None, Some g ->
    fun ctx ->
      invoke ctx;
      g ctx
  | Some f, Some g ->
    fun ctx ->
      f ctx;
      invoke ctx;
      g ctx

(** Compose straight-line operations in execution order in front of the
    terminator, unrolled four per closure. The terminator call stays in
    tail position. *)
let rec seq (ops : (ectx -> unit) list) (k : ectx -> unit) : ectx -> unit =
  match ops with
  | [] -> k
  | [ f1 ] ->
    fun ctx ->
      f1 ctx;
      k ctx
  | [ f1; f2 ] ->
    fun ctx ->
      f1 ctx;
      f2 ctx;
      k ctx
  | [ f1; f2; f3 ] ->
    fun ctx ->
      f1 ctx;
      f2 ctx;
      f3 ctx;
      k ctx
  | f1 :: f2 :: f3 :: f4 :: rest ->
    let k' = seq rest k in
    fun ctx ->
      f1 ctx;
      f2 ctx;
      f3 ctx;
      f4 ctx;
      k' ctx

(** {1 Count groups} *)

let traps : Ast.ibinop -> bool = function
  | Ast.DivS | DivU | RemS | RemU -> true
  | _ -> false

(** Can a count group be moved across [x]? It can when [x] touches only
    the frame's locals and operand slots, reads at most globals and the
    memory size, and cannot trap: everything but loads, stores,
    [memory.grow], [global.set], calls, branches, [unreachable],
    trapping conversions and integer division and remainder. *)
let frame_local (x : xinstr) : bool =
  match x with
  | XNop | XBlock _ | XLoop | XEnd | XDrop | XSelect | XLocalGet _ | XLocalSet _ | XLocalTee _
  | XGlobalGet _ | XConst _ | XMemorySize | XI32Eqz | XI32Rel _ | XI64Rel _ | XF64Bin _
  | XF64Rel _ | XF64Un _ | XF64ConvertI32S | XTestGen _ | XCompareGen _ | XUnaryGen _
  | XBinaryGen (Ast.FBin _) ->
    true
  | XI32Bin op | XI64Bin op | XBinaryGen (Ast.IBin (_, op)) -> not (traps op)
  | _ -> false

(** {1 Superinstructions}

    Short straight-line idioms that tier 1 compiles to one closure each;
    the comment gives the instructions a form covers. *)
type fused =
  | I32BinLL of Ast.ibinop * int * int  (** [local.get a; local.get b; i32.binop] *)
  | I32BinLC of Ast.ibinop * int * int32  (** [local.get a; i32.const c; i32.binop] *)
  | I32BinSL of Ast.ibinop * int  (** [local.get b; i32.binop] *)
  | I32BinSC of Ast.ibinop * int32  (** [i32.const c; i32.binop] *)
  | F64BinLL of Ast.fbinop * int * int  (** [local.get a; local.get b; f64.binop] *)
  | F64BinSL of Ast.fbinop * int  (** [local.get b; f64.binop] *)
  | F64BinSC of Ast.fbinop * float  (** [f64.const c; f64.binop] *)
  | IncrL of int * int32  (** [local.get x; i32.const c; i32.add; local.set x] *)
  | BrIfRelLL of Ast.irelop * int * int * int
      (** [local.get a; local.get b; i32.relop; br_if k] *)
  | BrIfRelLC of Ast.irelop * int * int32 * int
      (** [local.get a; i32.const c; i32.relop; br_if k] *)
  | BrIfRel of Ast.irelop * int  (** [i32.relop; br_if k] *)
  | BrIfEqz of int  (** [i32.eqz; br_if k] *)
  | I32LoadScaled of int32 * int
      (** [i32.const c; i32.mul; i32.add; i32.load off]: address
          [base + idx*c] with both operands popped *)
  | F64LoadScaled of int32 * int  (** same for [f64.load] *)
  | I32LoadL of int * int  (** [local.get a; i32.load off] *)
  | F64LoadL of int * int  (** [local.get a; f64.load off] *)

(** Can a superinstruction start with [x0; x1]? A cheap test that spares
    most instructions the full match. *)
let fusible_pair (x0 : xinstr) (x1 : xinstr) =
  match x0, x1 with
  | XLocalGet _, (XLocalGet _ | XConst (Value.I32 _) | XI32Bin _ | XF64Bin _ | XI32Load _ | XF64Load _)
  | XConst (Value.I32 _), XI32Bin _
  | XConst (Value.F64 _), XF64Bin _
  | (XI32Rel _ | XI32Eqz), XBrIf _ ->
    true
  | _ -> false

(** The form the [len] instructions at [pcs], consecutive as compiled,
    fuse to, longest form first ([fused_len] instructions). Each form
    fixes the heights of its instructions relative to the first, so the
    instructions compiled away between them must leave the stack as
    they found it. *)
let fuse (xbody : xinstr array) (heights : int array) (pcs : int array) len : fused option =
  let h0 = heights.(pcs.(0)) in
  let h1 = if len > 1 then heights.(pcs.(1)) - h0 else 0 in
  let h2 = if len > 2 then heights.(pcs.(2)) - h0 else 0 in
  let h3 = if len > 3 then heights.(pcs.(3)) - h0 else 0 in
  let four =
    if len < 4 || h1 <> 1 then None
    else
      match xbody.(pcs.(0)), xbody.(pcs.(1)), xbody.(pcs.(2)), xbody.(pcs.(3)) with
      | XLocalGet x, XConst (Value.I32 c), XI32Bin Ast.Add, XLocalSet y
        when x = y && h2 = 2 && h3 = 1 ->
        Some (IncrL (x, c))
      | XLocalGet a, XLocalGet b, XI32Rel r, XBrIf k when h2 = 2 && h3 = 1 ->
        Some (BrIfRelLL (r, a, b, k))
      | XLocalGet a, XConst (Value.I32 c), XI32Rel r, XBrIf k when h2 = 2 && h3 = 1 ->
        Some (BrIfRelLC (r, a, c, k))
      | XConst (Value.I32 c), XI32Bin Ast.Mul, XI32Bin Ast.Add, XI32Load off
        when h2 = 0 && h3 = -1 ->
        Some (I32LoadScaled (c, off))
      | XConst (Value.I32 c), XI32Bin Ast.Mul, XI32Bin Ast.Add, XF64Load off
        when h2 = 0 && h3 = -1 ->
        Some (F64LoadScaled (c, off))
      | _ -> None
  in
  match four with
  | Some _ -> four
  | None ->
    let three =
      if len < 3 || h1 <> 1 || h2 <> 2 then None
      else
        match xbody.(pcs.(0)), xbody.(pcs.(1)), xbody.(pcs.(2)) with
        | XLocalGet a, XLocalGet b, XI32Bin op -> Some (I32BinLL (op, a, b))
        | XLocalGet a, XConst (Value.I32 c), XI32Bin op -> Some (I32BinLC (op, a, c))
        | XLocalGet a, XLocalGet b, XF64Bin op -> Some (F64BinLL (op, a, b))
        | _ -> None
    in
    match three with
    | Some _ -> three
    | None ->
      if len < 2 then None
      else
        match xbody.(pcs.(0)), xbody.(pcs.(1)) with
        | XLocalGet b, XI32Bin op when h1 = 1 -> Some (I32BinSL (op, b))
        | XConst (Value.I32 c), XI32Bin op when h1 = 1 -> Some (I32BinSC (op, c))
        | XLocalGet b, XF64Bin op when h1 = 1 -> Some (F64BinSL (op, b))
        | XConst (Value.F64 c), XF64Bin op when h1 = 1 -> Some (F64BinSC (op, c))
        | XI32Rel r, XBrIf k when h1 = -1 -> Some (BrIfRel (r, k))
        | XI32Eqz, XBrIf k when h1 = 0 -> Some (BrIfEqz k)
        | XLocalGet a, XI32Load off when h1 = 1 -> Some (I32LoadL (a, off))
        | XLocalGet a, XF64Load off when h1 = 1 -> Some (F64LoadL (a, off))
        | _ -> None

let fused_len = function
  | IncrL _ | BrIfRelLL _ | BrIfRelLC _ | I32LoadScaled _ | F64LoadScaled _ -> 4
  | I32BinLL _ | I32BinLC _ | F64BinLL _ -> 3
  | I32BinSL _ | I32BinSC _ | F64BinSL _ | F64BinSC _ | BrIfRel _ | BrIfEqz _ | I32LoadL _
  | F64LoadL _ ->
    2

(** One site of a count group. *)
type counted =
  | Count_hook of (unit -> unit)  (** a bound hook call: its governor count, then its counter *)
  | Count_probe of Obs.Probe.entry * (unit -> unit)
      (** a probe event: its entry's active test and delivery, then its counter *)

(** The closure running the count group [sites] (in order) at operand
    height [h]. A group of hook calls alone, the AOT backend's, runs its
    counters back to back when no governor is attached. *)
let count_group (inst : instance) ~h (sites : counted list) : ectx -> unit =
  let hooks = List.filter_map (function Count_hook c -> Some c | Count_probe _ -> None) sites in
  if List.compare_lengths hooks sites = 0 then begin
    let cs = Array.of_list hooks in
    let n = Array.length cs in
    fun ctx ->
      ctx.st.size <- ctx.base + h;
      match inst.inst_gov with
      | None ->
        for i = 0 to n - 1 do
          (Array.unsafe_get cs i) ()
        done
      | Some g ->
        for i = 0 to n - 1 do
          Governor.count_host_call g;
          (Array.unsafe_get cs i) ()
        done
  end
  else begin
    let sites = Array.of_list sites in
    let n = Array.length sites in
    fun ctx ->
      ctx.st.size <- ctx.base + h;
      let gov = inst.inst_gov in
      for i = 0 to n - 1 do
        match Array.unsafe_get sites i with
        | Count_hook c ->
          (match gov with None -> () | Some g -> Governor.count_host_call g);
          c ()
        | Count_probe (e, c) ->
          (* {!Obs.Probe.gate} of one [@nth=1] entry *)
          if e.Obs.Probe.e_active then begin
            e.e_hits <- e.e_hits + 1;
            e.e_fired <- e.e_fired + 1;
            c ()
          end
      done
  end

(** {1 Pass [plan]: the fusion plan}

    Superinstruction fusion over the stream as compiled: from each pc
    emission will reach, the next (up to four) instructions of its block
    that compile to code, skipping elided loads, dead stores and bound
    counted runs; the counted sites met on the way join the form's count
    group, in order. A firing probe event or a bound entry ends the
    window, which is not walked when the next instruction cannot
    continue any form. The walk visits the pcs emission does: a bound
    run is stepped over whole, a form up to its last instruction. *)

(** A superinstruction as planned. *)
type form = {
  fused : fused;
  first : int;  (** the pc of its first instruction *)
  last : int;  (** the pc of its last instruction *)
  skipped : int;  (** instructions compiled away between its first and last *)
  absorbed : counted list;
      (** the counted sites met before its last instruction, newest first *)
}

let plan (b : body) (bl : blocks) (bd : binding) (r : roles) : form list =
  let xbody = b.xbody and role = r.role and pr = b.pr in
  let probed = pr.probed in
  (* [win_pc.(i)]: instruction [i] of the window; [win_acc.(i)],
     [win_skip.(i)]: the counted sites (in [acc], newest first) and the
     instructions compiled away before it *)
  let win_pc = Array.make 4 0 and win_acc = Array.make 4 0 and win_skip = Array.make 4 0 in
  let acc = ref [] and nacc = ref 0 in
  (* the counted probe events [evs.(q)] onto [acc]; [false] at a firing
     one *)
  let counted_at evs q =
    List.for_all
      (function
        | Probe_count (e, c) ->
          acc := Count_probe (e, c) :: !acc;
          incr nacc;
          true
        | Probe_fire _ -> false)
      evs.(q)
  in
  let window eb p =
    let next = p + 1 in
    match xbody.(p) with
    | (XLocalGet _ | XConst _ | XI32Rel _ | XI32Eqz) as x0
      when probed || next >= eb || Option.is_some (bound_at bd next)
           || Bytes.get role next <> r_plain || fusible_pair x0 xbody.(next) ->
      acc := [];
      nacc := 0;
      let skip = ref 0 and len = ref 0 and q = ref p and open_ = ref true in
      (* instruction [!len] is sought from [!q] *)
      while !open_ && !len < 4 && !q < eb do
        match bound_at bd !q with
        | Some (Site_count c, cp) ->
          acc := Count_hook c :: !acc;
          incr nacc;
          q := cp + 1
        | Some (Site_entry _, _) -> open_ := false
        | None ->
          (* the events of [p] before it have run *)
          if probed && !q > p && not (counted_at pr.pre !q) then open_ := false
          else begin
            if Bytes.get role !q <> r_plain then incr skip
            else if !len = 1 && not (fusible_pair x0 xbody.(!q)) then open_ := false
            else begin
              win_pc.(!len) <- !q;
              win_acc.(!len) <- !nacc;
              win_skip.(!len) <- !skip;
              incr len
            end;
            if probed && !open_ && not (counted_at pr.post !q) then open_ := false;
            incr q
          end
      done;
      if !len < 2 then None
      else (
        match fuse xbody b.heights win_pc !len with
        | None -> None
        | Some fused ->
          let last = fused_len fused - 1 in
          let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
          Some { fused; first = p; last = win_pc.(last); skipped = win_skip.(last);
                 absorbed = drop (!nacc - win_acc.(last)) !acc })
    | _ -> None
  in
  let forms = ref [] in
  for blk = 0 to Array.length bl.starts - 1 do
    if reachable b bl blk then begin
      let eb = bl.starts.(blk + 1) in
      let p = ref bl.starts.(blk) in
      while !p < eb do
        let q = !p in
        p := q + 1;
        (* only a push or an i32 test starts a form or a bound run with arguments *)
        match xbody.(q) with
        | XLocalGet _ | XConst _ | XI32Rel _ | XI32Eqz -> (
          match bound_at bd q with
          | Some (_, cp) -> p := cp + 1
          | None when Bytes.get role q = r_plain -> (
            match window eb q with Some f -> forms := f :: !forms; p := f.last + 1 | None -> ())
          | None -> ())
        | _ -> ()
      done
    end
  done;
  List.rev !forms

(** {1 Counters} *)

(* compiled calls to host functions that offer site entries, by whether
   the site bound one (registration is idempotent, so a counter is
   looked up at each count instead of shared through a [lazy] that
   compiling domains could force concurrently) *)
let hook_sites_counter binding =
  Obs.Metrics.counter "wasabi_tier1_hook_sites_total" ~labels:[ ("binding", binding) ]
    ~help:"Tier-1 compiled host call sites with a site binder, bound or left generic"

let hook_sites () =
  let read b = int_of_float (Obs.Metrics.counter_value (hook_sites_counter b)) in
  (read "bound", read "generic")

let count_groups_counter () =
  Obs.Metrics.counter "wasabi_tier1_count_groups_total"
    ~help:"Tier-1 count groups compiled: merged runs of counted hook sites and probe events"

let counted_sites_counter () =
  Obs.Metrics.counter "wasabi_tier1_counted_sites_total"
    ~help:"Counted hook sites and probe events that tier 1 compiled into count groups"

let fused_counter () =
  Obs.Metrics.counter "wasabi_tier1_fused_total" ~help:"Tier-1 superinstructions compiled"

let elided_counter () =
  Obs.Metrics.counter "wasabi_tier1_elided_total"
    ~help:"local.get/set/tee instructions tier 1 compiled away: elided loads and dead stores"

let typed_calls_counter () =
  Obs.Metrics.counter "wasabi_tier1_typed_calls_total"
    ~help:"Tier-1 call sites with a typed entry: direct calls within the instance, call_indirect"

let read_counter c = int_of_float (Obs.Metrics.counter_value (c ()))

let count_groups () = (read_counter counted_sites_counter, read_counter count_groups_counter)

type peephole = { fused : int; elided : int; typed_calls : int }

let peephole () =
  {
    fused = read_counter fused_counter;
    elided = read_counter elided_counter;
    typed_calls = read_counter typed_calls_counter;
  }

(** Straight-line code under construction: the closures emitted so far
    (reversed) and the counted sites of the open count group
    (reversed). *)
type stretch = {
  mutable ops : (ectx -> unit) list;
  mutable pending : counted list;
}

let empty_ints : int array = [||]
let empty_floats : float array = [||]

(** {1 Frames and calls} *)

(** Fresh zeroed scratch of at least [n] slots, by an allocator chosen
    once per body: up to 16 slots a literal array of the next power of
    two, which OCaml allocates inline on the minor heap, beyond that
    [Array.make], which is a C call. The frames of the real-world
    programs hold 2 to 13 locals. *)
let int_scratch n : unit -> int array =
  if n = 0 then fun () -> empty_ints
  else if n <= 2 then fun () -> [| 0; 0 |]
  else if n <= 4 then fun () -> [| 0; 0; 0; 0 |]
  else if n <= 8 then fun () -> [| 0; 0; 0; 0; 0; 0; 0; 0 |]
  else if n <= 16 then
    fun () -> [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]
  else fun () -> Array.make n 0

let float_scratch n : unit -> float array =
  if n = 0 then fun () -> empty_floats
  else if n <= 2 then fun () -> [| 0.; 0. |]
  else if n <= 4 then fun () -> [| 0.; 0.; 0.; 0. |]
  else if n <= 8 then fun () -> [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |]
  else if n <= 16 then
    fun () -> [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |]
  else fun () -> Array.make n 0.

(** The typed entry may be taken: the frame needs neither the profiler's
    timing nor the deopt-on-fault handler, which {!call_wasm} installs. *)
let typed_ok inst = match inst.inst_prof with None -> not inst.inst_deopt_on_fault | Some _ -> false

(** A call from a compiled body of [inst] to its own function [j]
    ([ft]), the arguments at slot [abase] on and the operand height
    [hh] above them. Which entry it takes is decided per call, from the
    callee's tier state then: a compiled callee is entered typed
    ({!call_typed}), anything else boxed through {!call_wasm}, so
    tier-up, [set_tier], profilers and deopt keep their effect. *)
let local_call inst ~abase ~hh (ft : func_type) j : ectx -> unit =
  let code = inst.inst_code.(j) in
  let boxed =
    staged_call ~abase ft (fun ctx ->
      ctx.st.size <- ctx.base + hh;
      call_wasm inst j ctx.st)
  in
  let unbox = Option.value (stage unbox_slot ~abase ft.results) ~default:ignore in
  fun ctx ->
    match code.c_tier with
    | T_compiled cb when typed_ok inst ->
      call_typed inst cb ctx abase;
      unbox ctx
    | _ -> boxed ctx

(** {1 Pass [emit_body]: code generation}

    One closure per basic block: its straight-line operations in order,
    then its terminator in tail position, behind the charge prologue. A
    bound run compiles whole, a planned form to one superinstruction, a
    pc [elide] or [dead_stores] marked to nothing, any other instruction
    by its category: locals, globals and constants; memory; numeric;
    calls; terminators.

    Count groups: counted sites ({!Interp.Site_count},
    {!Interp.Probe_count}) read nothing of the frame, so the counted
    sites of a trap-free straight-line stretch run together, in site
    order, at the stretch's end. A stretch ends at the first instruction
    that is not [frame_local], at the first event or bound site that is
    not counted, and at the block's terminator or end. The instructions
    a group is moved across touch only the frame's locals and operand
    slots, which a trap or a governor kill discards, and fuel, steps,
    triggers and the deadline are charged at block prologues, which a
    group never spans. *)

(** What emission compiled besides the closures: the count groups and
    the sites merged into them, and the call sites with a typed branch. *)
type tally = { mutable groups : int; mutable counted : int; mutable typed : int }

(** Emission's compile-time environment: the body and the results of the
    earlier passes, the blocks' closure cells and the tally. Emitted
    closures capture values read out of it, never the record. *)
type env = {
  inst : instance;
  b : body;
  bl : blocks;
  bd : binding;
  role : Bytes.t;
  mutable forms : form list;  (** the planned forms not yet emitted *)
  cells : (ectx -> unit) ref array;
  tally : tally;
}

let emit sc f = sc.ops <- f :: sc.ops

let engine_bug : ectx -> unit =
 fun _ -> raise (Value.Trap "tier1 reached an unreachable block (engine bug)")

let local_ty env x = if x < Array.length env.b.ltypes then env.b.ltypes.(x) else raise Unsupported
let want_local env ty x = if local_ty env x <> ty then raise Unsupported

(* fire a probe event at operand height [h] ([tys]: the type stack
   there, top first): box the operands and the local it reads, expose
   the height as the stack size, call it *)
let fire_at env ~h tys (ev : probe_fire) : ectx -> unit =
  let rec boxes i tys =
    if i >= ev.pe_operands then []
    else
      match tys with
      | [] -> raise Unsupported
      | ty :: rest ->
        (match box_slot ty (h - 1 - i) with
         | Some f -> f :: boxes (i + 1) rest
         | None -> boxes (i + 1) rest)
  in
  let x = ev.pe_local in
  let local =
    if x < 0 then []
    else
      match local_ty env x with
      | I32T ->
        [ (fun ctx ->
            Array.unsafe_set ctx.locals x
              (Value.I32 (Int32.of_int (Array.unsafe_get ctx.il x)))) ]
      | F64T ->
        [ (fun ctx -> Array.unsafe_set ctx.locals x (Value.F64 (Array.unsafe_get ctx.fl x))) ]
      | I64T | F32T -> []
  in
  let fire = ev.pe_fire in
  match chain (boxes 0 tys @ local) with
  | None ->
    fun ctx ->
      ctx.st.size <- ctx.base + h;
      fire ctx.locals
  | Some box ->
    fun ctx ->
      box ctx;
      ctx.st.size <- ctx.base + h;
      fire ctx.locals

(* close the open count group, if any, at operand height [h] *)
let flush env sc ~h =
  match sc.pending with
  | [] -> ()
  | sites ->
    sc.ops <- count_group env.inst ~h (List.rev sites) :: sc.ops;
    env.tally.groups <- env.tally.groups + 1;
    env.tally.counted <- env.tally.counted + List.length sites;
    sc.pending <- []

(* probe events [evs] at height [h], in order: a counted one joins the
   open group, any other closes it and fires *)
let events env sc ~h tys evs =
  List.iter
    (function
      | Probe_count (e, c) -> sc.pending <- Count_probe (e, c) :: sc.pending
      | Probe_fire f ->
        flush env sc ~h;
        emit sc (fire_at env ~h tys f))
    evs

(* the closure running probe events [evs] at height [h], then [k] *)
let events_then env ~h tys evs (k : ectx -> unit) : ectx -> unit =
  match evs with
  | [] -> k
  | _ ->
    let sc = { ops = []; pending = [] } in
    events env sc ~h tys evs;
    flush env sc ~h;
    seq (List.rev sc.ops) k

(* blocks are compiled in increasing index order, so a back-edge
   (the loop case) can capture the final target closure directly;
   forward and self edges go through the target's cell *)
let jump_to env ~cur (target : int) : ectx -> unit =
  let bi = env.bl.block_of.(target) in
  if bi < 0 then raise Unsupported;
  if bi < cur then !(env.cells.(bi))
  else begin
    let cell = env.cells.(bi) in
    fun ctx -> !cell ctx
  end

(* returning: box the result (if any) at the frame base and
   materialise the stack size; ends the tail-call chain *)
let ret_edge env ~from_h : ectx -> unit =
  match env.b.code.c_type.results with
  | [] ->
    if from_h < 0 then raise Unsupported;
    fun ctx -> ctx.st.size <- ctx.base
  | [ ty ] ->
    let src = from_h - 1 in
    if src < 0 then raise Unsupported;
    (match ty with
     | I32T ->
       fun ctx ->
         Array.unsafe_set ctx.st.data ctx.base
           (Value.I32 (Int32.of_int (Array.unsafe_get ctx.id src)));
         ctx.st.size <- ctx.base + 1
     | F64T ->
       fun ctx ->
         Array.unsafe_set ctx.st.data ctx.base
           (Value.F64 (Array.unsafe_get ctx.fd src));
         ctx.st.size <- ctx.base + 1
     | I64T | F32T ->
       if src = 0 then fun ctx -> ctx.st.size <- ctx.base + 1
       else
         fun ctx ->
           let d = ctx.st.data in
           Array.unsafe_set d ctx.base (Array.unsafe_get d (ctx.base + src));
           ctx.st.size <- ctx.base + 1)
  | _ -> raise Unsupported

(* a taken branch: copy the carried value down to the label height,
   reset the charge mark, tail-jump to the target block *)
let label_edge env ~cur ~from_h (l : label) : ectx -> unit =
  let jmp = jump_to env ~cur l.l_target in
  match l.l_ty with
  | None ->
    if from_h < l.l_height then raise Unsupported;
    fun ctx ->
      ctx.charged <- 0;
      jmp ctx
  | Some ty ->
    let src = from_h - 1 and dst = l.l_height in
    if src < 0 || dst < 0 || src < dst then raise Unsupported;
    if src = dst then
      fun ctx ->
        ctx.charged <- 0;
        jmp ctx
    else begin
      let cp = copy_slot ty ~src ~dst in
      fun ctx ->
        cp ctx;
        ctx.charged <- 0;
        jmp ctx
    end

(* relative label [k] of the branch at [p]: label if in range, else the
   function return (tier 0's [branch] does the same) *)
let branch_edge env ~cur ~from_h p k : ectx -> unit =
  match List.nth_opt env.b.frames_at.(p) k with
  | Some f -> label_edge env ~cur ~from_h f.f_label
  | None -> ret_edge env ~from_h

(* the implicit fall-off-the-end exit, the one place the function-exit
   probe fires *)
let end_edge env ~from_h : ectx -> unit =
  let b = env.b in
  events_then env ~h:from_h b.types_at.(Array.length b.xbody) b.pr.exit (ret_edge env ~from_h)

let with_mem env (k : Memory.t -> ectx -> unit) : ectx -> unit =
  match env.inst.inst_memory with
  | Some m -> k m
  | None -> fun _ -> raise (Value.Trap "no memory")

(** The straight-line superinstruction [f] at operand height [h] (that
    of its first instruction); returns the height after it. *)
let fused_op env sc ~h (f : fused) : int =
  match f with
  | I32BinLL (op, a, b) ->
    want_local env I32T a;
    want_local env I32T b;
    let s = h in
    (match op with
     | Ast.Add ->
       emit sc (fun ctx ->
         let il = ctx.il in
         Array.unsafe_set ctx.id s (Eval_numeric.norm32
              (Array.unsafe_get il a + Array.unsafe_get il b)))
     | _ ->
       let f = Eval_numeric.ibinop_i32_int op in
       emit sc (fun ctx ->
         let il = ctx.il in
         Array.unsafe_set ctx.id s (f (Array.unsafe_get il a) (Array.unsafe_get il b))));
    h + 1
  | I32BinLC (op, a, c) ->
    want_local env I32T a;
    let ci = Int32.to_int c in
    let s = h in
    (match op with
     | Ast.Add ->
       emit sc (fun ctx ->
         Array.unsafe_set ctx.id s (Eval_numeric.norm32 (Array.unsafe_get ctx.il a + ci)))
     | _ ->
       let f = Eval_numeric.ibinop_i32_int op in
       emit sc (fun ctx ->
         Array.unsafe_set ctx.id s (f (Array.unsafe_get ctx.il a) ci)));
    h + 1
  | I32BinSL (op, b) ->
    want_local env I32T b;
    let s = h - 1 in
    (match op with
     | Ast.Add ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Eval_numeric.norm32
              (Array.unsafe_get id s + Array.unsafe_get ctx.il b)))
     | _ ->
       let f = Eval_numeric.ibinop_i32_int op in
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (f (Array.unsafe_get id s) (Array.unsafe_get ctx.il b))));
    h
  | I32BinSC (op, c) ->
    let ci = Int32.to_int c in
    let s = h - 1 in
    (match op with
     | Ast.Add ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Eval_numeric.norm32 (Array.unsafe_get id s + ci)))
     | _ ->
       let f = Eval_numeric.ibinop_i32_int op in
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (f (Array.unsafe_get id s) ci)));
    h
  | F64BinLL (op, a, b) ->
    want_local env F64T a;
    want_local env F64T b;
    let s = h in
    (match op with
     | Ast.FAdd ->
       emit sc (fun ctx ->
         let fl = ctx.fl in
         Array.unsafe_set ctx.fd s (Array.unsafe_get fl a +. Array.unsafe_get fl b))
     | Ast.FSub ->
       emit sc (fun ctx ->
         let fl = ctx.fl in
         Array.unsafe_set ctx.fd s (Array.unsafe_get fl a -. Array.unsafe_get fl b))
     | Ast.FMul ->
       emit sc (fun ctx ->
         let fl = ctx.fl in
         Array.unsafe_set ctx.fd s (Array.unsafe_get fl a *. Array.unsafe_get fl b))
     | Ast.FDiv ->
       emit sc (fun ctx ->
         let fl = ctx.fl in
         Array.unsafe_set ctx.fd s (Array.unsafe_get fl a /. Array.unsafe_get fl b))
     | Ast.Min | Ast.Max | Ast.CopySign ->
       let f = Eval_numeric.fbinop_fn op in
       emit sc (fun ctx ->
         let fl = ctx.fl in
         Array.unsafe_set ctx.fd s (f (Array.unsafe_get fl a) (Array.unsafe_get fl b))));
    h + 1
  | F64BinSL (op, b) ->
    want_local env F64T b;
    let s = h - 1 in
    (match op with
     | Ast.FAdd ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s +. Array.unsafe_get ctx.fl b))
     | Ast.FSub ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s -. Array.unsafe_get ctx.fl b))
     | Ast.FMul ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s *. Array.unsafe_get ctx.fl b))
     | Ast.FDiv ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s /. Array.unsafe_get ctx.fl b))
     | Ast.Min | Ast.Max | Ast.CopySign ->
       let f = Eval_numeric.fbinop_fn op in
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (f (Array.unsafe_get fd s) (Array.unsafe_get ctx.fl b))));
    h
  | F64BinSC (op, c) ->
    let s = h - 1 in
    (match op with
     | Ast.FAdd ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s +. c))
     | Ast.FSub ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s -. c))
     | Ast.FMul ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s *. c))
     | Ast.FDiv ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s /. c))
     | Ast.Min | Ast.Max | Ast.CopySign ->
       let f = Eval_numeric.fbinop_fn op in
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (f (Array.unsafe_get fd s) c)));
    h
  | IncrL (x, c) ->
    (* the sum also lands in its operand slot, which the elision
       pass takes to hold [x] *)
    want_local env I32T x;
    let ci = Int32.to_int c in
    let s = h in
    emit sc (fun ctx ->
      let v = Eval_numeric.norm32 (Array.unsafe_get ctx.il x + ci) in
      Array.unsafe_set ctx.il x v;
      Array.unsafe_set ctx.id s v);
    h
  | I32LoadScaled (c, off) ->
    let ci = Int32.to_int c in
    let s = h - 2 in
    emit sc
      (with_mem env (fun m ctx ->
         let id = ctx.id in
         let addr =
           (Array.unsafe_get id s + (Array.unsafe_get id (s + 1) * ci))
           land 0xFFFFFFFF
         in
         Array.unsafe_set id s (Memory.load_i32_u m addr off)));
    h - 1
  | F64LoadScaled (c, off) ->
    let ci = Int32.to_int c in
    let s = h - 2 in
    emit sc
      (with_mem env (fun m ctx ->
         let id = ctx.id in
         let addr =
           (Array.unsafe_get id s + (Array.unsafe_get id (s + 1) * ci))
           land 0xFFFFFFFF
         in
         Array.unsafe_set ctx.fd s (Memory.load_f64_u m addr off)));
    h - 1
  | I32LoadL (a, off) ->
    want_local env I32T a;
    let s = h in
    emit sc
      (with_mem env (fun m ctx ->
         Array.unsafe_set ctx.id s (Memory.load_i32_u m
              (Array.unsafe_get ctx.il a land 0xFFFFFFFF)
              off)));
    h + 1
  | F64LoadL (a, off) ->
    want_local env I32T a;
    let s = h in
    emit sc
      (with_mem env (fun m ctx ->
         Array.unsafe_set ctx.fd s (Memory.load_f64_u m
              (Array.unsafe_get ctx.il a land 0xFFFFFFFF)
              off)));
    h + 1
  | BrIfRelLL _ | BrIfRelLC _ | BrIfRel _ | BrIfEqz _ -> invalid_arg "Tier1.fused_op"

(** The compare-and-branch superinstruction [f] ending at [q], at
    operand height [h]: the block's terminator. *)
let fused_branch env ~cur ~h (f : fused) q : ectx -> unit =
  let next = jump_to env ~cur (q + 1) in
  match f with
  | BrIfRelLL (r, a, b, k) ->
    want_local env I32T a;
    want_local env I32T b;
    let taken = branch_edge env ~cur ~from_h:h q k in
    (* the loop-controlling comparison: every relop inlined so
       the back-edge test costs no closure call *)
    (match r with
     | Ast.Eq -> fun ctx ->
       if Array.unsafe_get ctx.il a = Array.unsafe_get ctx.il b then taken ctx else next ctx
     | Ast.Ne -> fun ctx ->
       if Array.unsafe_get ctx.il a <> Array.unsafe_get ctx.il b then taken ctx else next ctx
     | Ast.LtS -> fun ctx ->
       if Array.unsafe_get ctx.il a < Array.unsafe_get ctx.il b then taken ctx else next ctx
     | Ast.LtU -> fun ctx ->
       if Array.unsafe_get ctx.il a land 0xFFFFFFFF < Array.unsafe_get ctx.il b land 0xFFFFFFFF
       then taken ctx else next ctx
     | Ast.GtS -> fun ctx ->
       if Array.unsafe_get ctx.il a > Array.unsafe_get ctx.il b then taken ctx else next ctx
     | Ast.GtU -> fun ctx ->
       if Array.unsafe_get ctx.il a land 0xFFFFFFFF > Array.unsafe_get ctx.il b land 0xFFFFFFFF
       then taken ctx else next ctx
     | Ast.LeS -> fun ctx ->
       if Array.unsafe_get ctx.il a <= Array.unsafe_get ctx.il b then taken ctx else next ctx
     | Ast.LeU -> fun ctx ->
       if Array.unsafe_get ctx.il a land 0xFFFFFFFF <= Array.unsafe_get ctx.il b land 0xFFFFFFFF
       then taken ctx else next ctx
     | Ast.GeS -> fun ctx ->
       if Array.unsafe_get ctx.il a >= Array.unsafe_get ctx.il b then taken ctx else next ctx
     | Ast.GeU -> fun ctx ->
       if Array.unsafe_get ctx.il a land 0xFFFFFFFF >= Array.unsafe_get ctx.il b land 0xFFFFFFFF
       then taken ctx
       else next ctx)
  | BrIfRelLC (r, a, c, k) ->
    want_local env I32T a;
    let ci = Int32.to_int c in
    let cu = ci land 0xFFFFFFFF in
    let taken = branch_edge env ~cur ~from_h:h q k in
    (match r with
     | Ast.Eq -> fun ctx -> if Array.unsafe_get ctx.il a = ci then taken ctx else next ctx
     | Ast.Ne -> fun ctx -> if Array.unsafe_get ctx.il a <> ci then taken ctx else next ctx
     | Ast.LtS -> fun ctx -> if Array.unsafe_get ctx.il a < ci then taken ctx else next ctx
     | Ast.LtU ->
       fun ctx -> if Array.unsafe_get ctx.il a land 0xFFFFFFFF < cu then taken ctx else next ctx
     | Ast.GtS -> fun ctx -> if Array.unsafe_get ctx.il a > ci then taken ctx else next ctx
     | Ast.GtU ->
       fun ctx -> if Array.unsafe_get ctx.il a land 0xFFFFFFFF > cu then taken ctx else next ctx
     | Ast.LeS -> fun ctx -> if Array.unsafe_get ctx.il a <= ci then taken ctx else next ctx
     | Ast.LeU ->
       fun ctx -> if Array.unsafe_get ctx.il a land 0xFFFFFFFF <= cu then taken ctx else next ctx
     | Ast.GeS -> fun ctx -> if Array.unsafe_get ctx.il a >= ci then taken ctx else next ctx
     | Ast.GeU ->
       fun ctx -> if Array.unsafe_get ctx.il a land 0xFFFFFFFF >= cu then taken ctx else next ctx)
  | BrIfRel (r, k) ->
    let f = Eval_numeric.irelop_i32_int r in
    let s = h - 2 in
    let taken = branch_edge env ~cur ~from_h:(h - 2) q k in
    fun ctx ->
      let id = ctx.id in
      if f (Array.unsafe_get id s) (Array.unsafe_get id (s + 1)) then taken ctx else next ctx
  | BrIfEqz k ->
    let s = h - 1 in
    let taken = branch_edge env ~cur ~from_h:(h - 1) q k in
    fun ctx -> if Array.unsafe_get ctx.id s = 0 then taken ctx else next ctx
  | _ -> invalid_arg "Tier1.fused_branch"

(** Locals, globals, constants, [drop] and [select] at operand height
    [h] ([p]: the instruction's pc); returns the height after it. *)
let emit_variable env sc ~h p (xi : xinstr) : int =
  match xi with
  | XDrop -> h - 1
  | XSelect ->
    let s = h - 3 in
    let ty =
      match env.b.types_at.(p) with
      | _cond :: ty :: _ -> ty
      | _ -> raise Unsupported
    in
    (match ty with
     | I32T ->
       emit sc (fun ctx ->
         let id = ctx.id in
         if Array.unsafe_get id (s + 2) = 0 then
           Array.unsafe_set id s (Array.unsafe_get id (s + 1)))
     | F64T ->
       emit sc (fun ctx ->
         if Array.unsafe_get ctx.id (s + 2) = 0 then
           Array.unsafe_set ctx.fd s (Array.unsafe_get ctx.fd (s + 1)))
     | I64T | F32T ->
       emit sc (fun ctx ->
         if Array.unsafe_get ctx.id (s + 2) = 0 then begin
           let d = ctx.st.data in
           let b = ctx.base + s in
           Array.unsafe_set d b (Array.unsafe_get d (b + 1))
         end));
    h - 2
  | XLocalGet x ->
    let s = h in
    (match local_ty env x with
     | I32T -> emit sc (fun ctx -> Array.unsafe_set ctx.id s (Array.unsafe_get ctx.il x))
     | F64T -> emit sc (fun ctx -> Array.unsafe_set ctx.fd s (Array.unsafe_get ctx.fl x))
     | I64T | F32T ->
       emit sc (fun ctx ->
         Array.unsafe_set ctx.st.data (ctx.base + s) (Array.unsafe_get ctx.locals x)));
    h + 1
  | XLocalSet x | XLocalTee x ->
    let s = h - 1 in
    (match local_ty env x with
     | I32T -> emit sc (fun ctx -> Array.unsafe_set ctx.il x (Array.unsafe_get ctx.id s))
     | F64T -> emit sc (fun ctx -> Array.unsafe_set ctx.fl x (Array.unsafe_get ctx.fd s))
     | I64T | F32T ->
       emit sc (fun ctx ->
         Array.unsafe_set ctx.locals x (Array.unsafe_get ctx.st.data (ctx.base + s))));
    (match xi with XLocalSet _ -> s | _ -> h)
  | XGlobalGet x ->
    let g = env.inst.inst_globals.(x) in
    let s = h in
    (match g.g_type.content with
     | I32T ->
       emit sc (fun ctx ->
         Array.unsafe_set ctx.id s (Int32.to_int (Value.as_i32 g.g_value)))
     | F64T -> emit sc (fun ctx -> Array.unsafe_set ctx.fd s (Value.as_f64 g.g_value))
     | I64T | F32T -> emit sc (fun ctx -> Array.unsafe_set ctx.st.data (ctx.base + s) g.g_value));
    h + 1
  | XGlobalSet x ->
    let g = env.inst.inst_globals.(x) in
    let s = h - 1 in
    (match g.g_type.content with
     | I32T ->
       emit sc (fun ctx -> g.g_value <- Value.I32 (Int32.of_int (Array.unsafe_get ctx.id s)))
     | F64T -> emit sc (fun ctx -> g.g_value <- Value.F64 (Array.unsafe_get ctx.fd s))
     | I64T | F32T ->
       emit sc (fun ctx -> g.g_value <- Array.unsafe_get ctx.st.data (ctx.base + s)));
    h - 1
  | XConst v ->
    let s = h in
    (match v with
     | Value.I32 c ->
       let ci = Int32.to_int c in
       emit sc (fun ctx -> Array.unsafe_set ctx.id s ci)
     | Value.F64 f -> emit sc (fun ctx -> Array.unsafe_set ctx.fd s f)
     | Value.I64 _ | Value.F32 _ ->
       emit sc (fun ctx -> Array.unsafe_set ctx.st.data (ctx.base + s) v));
    h + 1
  | _ -> invalid_arg "Tier1.emit_variable"

(** Loads, stores, [memory.size] and [memory.grow] at operand height
    [h]; returns the height after the instruction. *)
let emit_memory env sc ~h (xi : xinstr) : int =
  match xi with
  | XI32Load off ->
    let s = h - 1 in
    emit sc
      (with_mem env (fun m ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Memory.load_i32_u m (Array.unsafe_get id s land 0xFFFFFFFF) off)));
    h
  | XI64Load off ->
    let s = h - 1 in
    emit sc
      (with_mem env (fun m ctx ->
         let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
         Array.unsafe_set ctx.st.data (ctx.base + s) (Value.I64 (Memory.load_i64 m addr off))));
    h
  | XF32Load off ->
    let s = h - 1 in
    emit sc
      (with_mem env (fun m ctx ->
         let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
         Array.unsafe_set ctx.st.data (ctx.base + s)
           (Value.F32 (Memory.load_f32_bits m addr off))));
    h
  | XF64Load off ->
    let s = h - 1 in
    emit sc
      (with_mem env (fun m ctx ->
         Array.unsafe_set ctx.fd s
           (Memory.load_f64_u m (Array.unsafe_get ctx.id s land 0xFFFFFFFF) off)));
    h
  | XI32Store off ->
    let s = h - 2 in
    emit sc
      (with_mem env (fun m ctx ->
         let id = ctx.id in
         Memory.store_i32_u m
           (Array.unsafe_get id s land 0xFFFFFFFF)
           off
           (Array.unsafe_get id (s + 1))));
    h - 2
  | XI64Store off ->
    let s = h - 2 in
    emit sc
      (with_mem env (fun m ctx ->
         let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
         Memory.store_i64 m addr off
           (Value.as_i64 (Array.unsafe_get ctx.st.data (ctx.base + s + 1)))));
    h - 2
  | XF32Store off ->
    let s = h - 2 in
    emit sc
      (with_mem env (fun m ctx ->
         let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
         Memory.store_f32_bits m addr off
           (Value.as_f32_bits (Array.unsafe_get ctx.st.data (ctx.base + s + 1)))));
    h - 2
  | XF64Store off ->
    let s = h - 2 in
    emit sc
      (with_mem env (fun m ctx ->
         Memory.store_f64_u m
           (Array.unsafe_get ctx.id s land 0xFFFFFFFF)
           off
           (Array.unsafe_get ctx.fd (s + 1))));
    h - 2
  | XLoadGen op ->
    let s = h - 1 in
    (match op.Ast.lty with
     | I32T ->
       emit sc
         (with_mem env (fun m ctx ->
            let id = ctx.id in
            let addr = Int32.of_int (Array.unsafe_get id s) in
            Array.unsafe_set id s (Int32.to_int (Value.as_i32 (Memory.load m op addr)))))
     | F64T ->
       emit sc
         (with_mem env (fun m ctx ->
            let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
            Array.unsafe_set ctx.fd s (Value.as_f64 (Memory.load m op addr))))
     | I64T | F32T ->
       emit sc
         (with_mem env (fun m ctx ->
            let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
            Array.unsafe_set ctx.st.data (ctx.base + s) (Memory.load m op addr))));
    h
  | XStoreGen op ->
    let s = h - 2 in
    (match op.Ast.sty with
     | I32T ->
       emit sc
         (with_mem env (fun m ctx ->
            let id = ctx.id in
            Memory.store m op
              (Int32.of_int (Array.unsafe_get id s))
              (Value.I32 (Int32.of_int (Array.unsafe_get id (s + 1))))))
     | F64T ->
       emit sc
         (with_mem env (fun m ctx ->
            Memory.store m op
              (Int32.of_int (Array.unsafe_get ctx.id s))
              (Value.F64 (Array.unsafe_get ctx.fd (s + 1)))))
     | I64T | F32T ->
       emit sc
         (with_mem env (fun m ctx ->
            Memory.store m op
              (Int32.of_int (Array.unsafe_get ctx.id s))
              (Array.unsafe_get ctx.st.data (ctx.base + s + 1)))));
    h - 2
  | XMemorySize ->
    let s = h in
    emit sc (with_mem env (fun m ctx -> Array.unsafe_set ctx.id s (Memory.size_pages m)));
    h + 1
  | XMemoryGrow ->
    let s = h - 1 in
    let inst = env.inst in
    emit sc
      (with_mem env (fun m ctx ->
         let id = ctx.id in
         let old =
           match inst.inst_gov with
           | None -> Memory.grow m (Array.unsafe_get id s)
           | Some g -> Governor.governed_grow g m (Array.unsafe_get id s)
         in
         Array.unsafe_set id s old));
    h
  | _ -> invalid_arg "Tier1.emit_memory"

(** Numeric operators at operand height [h]; returns the height after
    the instruction. *)
let emit_numeric sc ~h (xi : xinstr) : int =
  match xi with
  | XI32Eqz ->
    let s = h - 1 in
    emit sc (fun ctx ->
      let id = ctx.id in
      Array.unsafe_set id s (if Array.unsafe_get id s = 0 then 1 else 0));
    h
  | XI32Bin op ->
    let s = h - 2 in
    (match op with
     | Ast.Add ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (Eval_numeric.norm32 (Array.unsafe_get id s + Array.unsafe_get id (s + 1))))
     | Ast.Sub ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (Eval_numeric.norm32 (Array.unsafe_get id s - Array.unsafe_get id (s + 1))))
     | Ast.Mul ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (Eval_numeric.norm32 (Array.unsafe_get id s * Array.unsafe_get id (s + 1))))
     | Ast.And ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Array.unsafe_get id s land Array.unsafe_get id (s + 1)))
     | Ast.Or ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Array.unsafe_get id s lor Array.unsafe_get id (s + 1)))
     | Ast.Xor ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Array.unsafe_get id s lxor Array.unsafe_get id (s + 1)))
     | Ast.Shl ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Eval_numeric.norm32
              (Array.unsafe_get id s lsl (Array.unsafe_get id (s + 1) land 31))))
     | Ast.ShrS ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Array.unsafe_get id s asr (Array.unsafe_get id (s + 1) land 31)))
     | Ast.ShrU ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (Eval_numeric.norm32
              ((Array.unsafe_get id s land 0xFFFFFFFF)
               lsr (Array.unsafe_get id (s + 1) land 31))))
     | Ast.DivS | Ast.DivU | Ast.RemS | Ast.RemU | Ast.Rotl | Ast.Rotr ->
       let f = Eval_numeric.ibinop_i32_int op in
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (f (Array.unsafe_get id s) (Array.unsafe_get id (s + 1)))));
    h - 1
  | XI32Rel r ->
    let s = h - 2 in
    (match r with
     | Ast.Eq ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (if Array.unsafe_get id s = Array.unsafe_get id (s + 1) then 1 else 0))
     | Ast.Ne ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (if Array.unsafe_get id s <> Array.unsafe_get id (s + 1) then 1 else 0))
     | Ast.LtS ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (if Array.unsafe_get id s < Array.unsafe_get id (s + 1) then 1 else 0))
     | Ast.LtU ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (if
              Array.unsafe_get id s land 0xFFFFFFFF
              < Array.unsafe_get id (s + 1) land 0xFFFFFFFF
            then 1
            else 0))
     | Ast.GtS ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (if Array.unsafe_get id s > Array.unsafe_get id (s + 1) then 1 else 0))
     | Ast.GtU ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (if
              Array.unsafe_get id s land 0xFFFFFFFF
              > Array.unsafe_get id (s + 1) land 0xFFFFFFFF
            then 1
            else 0))
     | Ast.LeS ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (if Array.unsafe_get id s <= Array.unsafe_get id (s + 1) then 1 else 0))
     | Ast.LeU ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (if
              Array.unsafe_get id s land 0xFFFFFFFF
              <= Array.unsafe_get id (s + 1) land 0xFFFFFFFF
            then 1
            else 0))
     | Ast.GeS ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s
           (if Array.unsafe_get id s >= Array.unsafe_get id (s + 1) then 1 else 0))
     | Ast.GeU ->
       emit sc (fun ctx ->
         let id = ctx.id in
         Array.unsafe_set id s (if
              Array.unsafe_get id s land 0xFFFFFFFF
              >= Array.unsafe_get id (s + 1) land 0xFFFFFFFF
            then 1
            else 0)));
    h - 1
  | XI64Bin op ->
    let f = Eval_numeric.ibinop_i64_fn op in
    let s = h - 2 in
    emit sc (fun ctx ->
      let d = ctx.st.data in
      let b = ctx.base + s in
      Array.unsafe_set d b (Value.I64
           (f (Value.as_i64 (Array.unsafe_get d b)) (Value.as_i64 (Array.unsafe_get d (b + 1))))));
    h - 1
  | XI64Rel r ->
    let f = Eval_numeric.irelop_i64_fn r in
    let s = h - 2 in
    emit sc (fun ctx ->
      let d = ctx.st.data in
      let b = ctx.base + s in
      Array.unsafe_set ctx.id s
        (if f (Value.as_i64 (Array.unsafe_get d b)) (Value.as_i64 (Array.unsafe_get d (b + 1)))
         then 1
         else 0));
    h - 1
  | XF64Bin op ->
    let s = h - 2 in
    (match op with
     | Ast.FAdd ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s +. Array.unsafe_get fd (s + 1)))
     | Ast.FSub ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s -. Array.unsafe_get fd (s + 1)))
     | Ast.FMul ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s *. Array.unsafe_get fd (s + 1)))
     | Ast.FDiv ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (Array.unsafe_get fd s /. Array.unsafe_get fd (s + 1)))
     | Ast.Min | Ast.Max | Ast.CopySign ->
       let f = Eval_numeric.fbinop_fn op in
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set fd s (f (Array.unsafe_get fd s) (Array.unsafe_get fd (s + 1)))));
    h - 1
  | XF64Rel r ->
    let s = h - 2 in
    (match r with
     | Ast.FEq ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set ctx.id s
           (if Array.unsafe_get fd s = Array.unsafe_get fd (s + 1) then 1 else 0))
     | Ast.FNe ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set ctx.id s
           (if Array.unsafe_get fd s <> Array.unsafe_get fd (s + 1) then 1 else 0))
     | Ast.FLt ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set ctx.id s
           (if Array.unsafe_get fd s < Array.unsafe_get fd (s + 1) then 1 else 0))
     | Ast.FGt ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set ctx.id s
           (if Array.unsafe_get fd s > Array.unsafe_get fd (s + 1) then 1 else 0))
     | Ast.FLe ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set ctx.id s
           (if Array.unsafe_get fd s <= Array.unsafe_get fd (s + 1) then 1 else 0))
     | Ast.FGe ->
       emit sc (fun ctx ->
         let fd = ctx.fd in
         Array.unsafe_set ctx.id s
           (if Array.unsafe_get fd s >= Array.unsafe_get fd (s + 1) then 1 else 0)));
    h - 1
  | XF64Un u ->
    let s = h - 1 in
    (match u with
     | Ast.Abs ->
       emit sc (fun ctx -> Array.unsafe_set ctx.fd s (abs_float (Array.unsafe_get ctx.fd s)))
     | Ast.Neg -> emit sc (fun ctx -> Array.unsafe_set ctx.fd s (-.Array.unsafe_get ctx.fd s))
     | Ast.Sqrt ->
       emit sc (fun ctx -> Array.unsafe_set ctx.fd s (sqrt (Array.unsafe_get ctx.fd s)))
     | Ast.Ceil | Ast.Floor | Ast.Trunc | Ast.Nearest ->
       let f = Eval_numeric.funop_impl u in
       emit sc (fun ctx -> Array.unsafe_set ctx.fd s (f (Array.unsafe_get ctx.fd s))));
    h
  | XF64ConvertI32S ->
    let s = h - 1 in
    emit sc (fun ctx -> Array.unsafe_set ctx.fd s (float_of_int (Array.unsafe_get ctx.id s)));
    h
  | XI32TruncF64S ->
    let s = h - 1 in
    emit sc (fun ctx ->
      Array.unsafe_set ctx.id s (Int32.to_int (Value.Cvt.i32_trunc_s (Array.unsafe_get ctx.fd s))));
    h
  (* the generic forms: [Interp.decode_instr] leaves only the i64 test,
     f32 comparisons and arithmetic, and the unary operators other than
     f64's here; any other operator makes tier 1 decline the body *)
  | XTestGen (Ast.IEqz S64) ->
    let s = h - 1 in
    emit sc (fun ctx ->
      Array.unsafe_set ctx.id s
        (if Int64.equal (Value.as_i64 (Array.unsafe_get ctx.st.data (ctx.base + s))) 0L then 1
         else 0));
    h
  | XCompareGen (Ast.FRel (SF32, _) as op) ->
    let s = h - 2 in
    emit sc (fun ctx ->
      let d = ctx.st.data in
      let b = ctx.base + s in
      Array.unsafe_set ctx.id s (Int32.to_int
           (Value.as_i32
              (Eval_numeric.eval_relop op (Array.unsafe_get d b) (Array.unsafe_get d (b + 1))))));
    h - 1
  | XUnaryGen op ->
    let s = h - 1 in
    (match op with
     | Ast.IUn (S32, _) ->
       emit sc (fun ctx ->
         let v =
           Eval_numeric.eval_unop op (Value.I32 (Int32.of_int (Array.unsafe_get ctx.id s)))
         in
         Array.unsafe_set ctx.id s (Int32.to_int (Value.as_i32 v)))
     | Ast.IUn (S64, _) | Ast.FUn (SF32, _) ->
       emit sc (fun ctx ->
         let d = ctx.st.data in
         let b = ctx.base + s in
         Array.unsafe_set d b (Eval_numeric.eval_unop op (Array.unsafe_get d b)))
     | Ast.FUn (SF64, _) -> raise Unsupported);
    h
  | XBinaryGen (Ast.FBin (SF32, _) as op) ->
    let s = h - 2 in
    emit sc (fun ctx ->
      let d = ctx.st.data in
      let b = ctx.base + s in
      Array.unsafe_set d b
        (Eval_numeric.eval_binop op (Array.unsafe_get d b) (Array.unsafe_get d (b + 1))));
    h - 1
  | XTestGen _ | XCompareGen _ | XBinaryGen _ -> raise Unsupported
  | XConvertGen op ->
    let s = h - 1 in
    let src, dst = cvt_types op in
    let rv = read_val src s and wv = write_val dst s in
    emit sc (fun ctx -> wv ctx (Eval_numeric.eval_cvtop op (rv ctx)));
    h
  | _ -> invalid_arg "Tier1.emit_numeric"

(** A call at operand height [h]; returns the height after it. Within
    the instance, a compiled callee takes the typed entry; otherwise box
    the unboxed arguments, materialise the stack size, re-enter the
    engine, unpack the results: the callee may be tier 0, tier 1 or a
    host function. *)
let emit_call env sc ~h (xi : xinstr) : int =
  let inst = env.inst in
  match xi with
  | XCall fidx ->
    let callee = inst.inst_funcs.(fidx) in
    let ft = func_type_of callee in
    let np = List.length ft.params and nr = List.length ft.results in
    let abase = h - np in
    if abase < 0 then raise Unsupported;
    (match callee with
     | Wasm_func (j, ci) when ci == inst ->
       env.tally.typed <- env.tally.typed + 1;
       emit sc (local_call inst ~abase ~hh:h ft j)
     | Wasm_func (j, ci) ->
       emit sc (staged_call ~abase ft (fun ctx ->
         ctx.st.size <- ctx.base + h;
         call_wasm ci j ctx.st))
     | Host_func hf ->
       emit sc (staged_call ~abase ft (fun ctx ->
         ctx.st.size <- ctx.base + h;
         call_host inst hf ctx.st)));
    h - np + nr
  | XCallIndirect tidx ->
    let expected = inst.inst_types.(tidx) in
    let np = List.length expected.params and nr = List.length expected.results in
    let abase = h - 1 - np in
    if abase < 0 then raise Unsupported;
    let si = h - 1 in
    (match inst.inst_table with
     | None -> emit sc (fun _ -> raise (Value.Trap "no table"))
     | Some table ->
       env.tally.typed <- env.tally.typed + 1;
       let box = Option.value (stage box_slot ~abase expected.params) ~default:ignore
       and unbox = Option.value (stage unbox_slot ~abase expected.results) ~default:ignore in
       let boxed ctx callee =
         box ctx;
         ctx.st.size <- ctx.base + si;
         match callee with
         | Wasm_func (j, ci) -> call_wasm ci j ctx.st
         | Host_func hf -> call_host inst hf ctx.st
       in
       emit sc (fun ctx ->
         let i = Array.unsafe_get ctx.id si land 0xFFFFFFFF in
         let elems = table.t_elems in
         if i >= Array.length elems then raise (Value.Trap "undefined element");
         match Array.unsafe_get elems i with
         | None -> raise (Value.Trap "uninitialized element")
         | Some callee ->
           if not (equal_func_type (func_type_of callee) expected) then
             raise (Value.Trap "indirect call type mismatch");
           (match callee with
            | Wasm_func (j, ci) when ci == inst && typed_ok inst ->
              (match ci.inst_code.(j).c_tier with
               | T_compiled cb -> call_typed inst cb ctx abase
               | _ -> boxed ctx callee)
            | _ -> boxed ctx callee);
           unbox ctx));
    h - 1 - np + nr
  | _ -> invalid_arg "Tier1.emit_call"

(** The terminator [xi] at [p], operand height [h]: every control
    transfer ends its block. *)
let emit_terminator env ~cur ~h p (xi : xinstr) : ectx -> unit =
  match xi with
  | XUnreachable -> fun _ -> raise (Value.Trap "unreachable executed")
  | XIf (else_target, _) | XIfElse (else_target, _, _) ->
    (* a valid [if] without [else] has no results: a false condition
       skips to its end *)
    let s = h - 1 in
    let then_edge = jump_to env ~cur (p + 1)
    and else_edge = jump_to env ~cur else_target in
    fun ctx ->
      if Array.unsafe_get ctx.id s = 0 then begin
        ctx.charged <- 0;
        else_edge ctx
      end
      else then_edge ctx
  | XElse end_target ->
    let edge = jump_to env ~cur end_target in
    fun ctx ->
      ctx.charged <- 0;
      edge ctx
  | XBr k -> branch_edge env ~cur ~from_h:h p k
  | XBrIf k ->
    let s = h - 1 in
    let taken = branch_edge env ~cur ~from_h:(h - 1) p k in
    let next = jump_to env ~cur (p + 1) in
    fun ctx -> if Array.unsafe_get ctx.id s = 0 then next ctx else taken ctx
  | XBrTable tbl ->
    let s = h - 1 in
    let edges = Array.map (fun k -> branch_edge env ~cur ~from_h:(h - 1) p k) tbl in
    let last = Array.length tbl - 1 in
    fun ctx ->
      let i = Array.unsafe_get ctx.id s land 0xFFFFFFFF in
      (if i < last then Array.unsafe_get edges i else Array.unsafe_get edges last) ctx
  | XReturn -> ret_edge env ~from_h:h
  | _ -> invalid_arg "Tier1.emit_terminator"

(** The closure of block [cur]. *)
let compile_block env cur : ectx -> unit =
  let b = env.b and inst = env.inst in
  let xbody = b.xbody and heights = b.heights and pr = b.pr in
  let n = Array.length xbody in
  let sb = env.bl.starts.(cur) in
  if sb = n then if heights.(n) >= 0 then end_edge env ~from_h:heights.(n) else engine_bug
  else if heights.(sb) < 0 then engine_bug
  else begin
    let eb = env.bl.starts.(cur + 1) in
    let h = ref heights.(sb) in
    let sc = { ops = []; pending = [] } in
    let term = ref None in
    let pc = ref sb in
    while Option.is_none !term && !pc < eb do
      let p = !pc in
      if heights.(p) >= 0 && heights.(p) <> !h then raise Unsupported;
      (* a bound run compiles whole; everything else instruction by
         instruction or as a superinstruction *)
      match bound_at env.bd p with
      | Some (Site_count c, call_pc) ->
        sc.pending <- Count_hook c :: sc.pending;
        pc := call_pc + 1
      | Some (Site_entry entry, call_pc) ->
        (* the call's side effects as [call_host] has them: governor
           count, then the stack size at the height below the
           arguments, so the entry may re-enter the engine *)
        flush env sc ~h:!h;
        let hp = !h in
        emit sc (fun ctx ->
          (match inst.inst_gov with None -> () | Some g -> Governor.count_host_call g);
          ctx.st.size <- ctx.base + hp;
          entry ctx);
        pc := call_pc + 1
      | None ->
        if pr.probed then events env sc ~h:!h b.types_at.(p) pr.pre.(p);
        let last =
          if Bytes.get env.role p <> r_plain then begin
            (* compiled away: an elided load pushes, a dead store pops *)
            (match xbody.(p) with XLocalGet _ -> incr h | XLocalSet _ -> decr h | _ -> ());
            p
          end
          else
            match env.forms with
            | fm :: rest when fm.first = p ->
              env.forms <- rest;
              sc.pending <- fm.absorbed @ sc.pending;
              (* only a form's last instruction may trap or leave the frame *)
              if not (frame_local xbody.(fm.last)) then flush env sc ~h:!h;
              (match fm.fused with
               | BrIfRelLL _ | BrIfRelLC _ | BrIfRel _ | BrIfEqz _ ->
                 term := Some (fused_branch env ~cur ~h:!h fm.fused fm.last)
               | f -> h := fused_op env sc ~h:!h f);
              fm.last
            | _ ->
              let xi = xbody.(p) in
              if not (frame_local xi) then flush env sc ~h:!h;
              (match xi with
               (* no-ops at run time: all control bookkeeping is static *)
               | XNop | XBlock _ | XLoop | XEnd -> ()
               | XUnreachable | XIf _ | XIfElse _ | XElse _ | XBr _ | XBrIf _ | XBrTable _
               | XReturn ->
                 term := Some (emit_terminator env ~cur ~h:!h p xi)
               | XDrop | XSelect | XLocalGet _ | XLocalSet _ | XLocalTee _ | XGlobalGet _
               | XGlobalSet _ | XConst _ ->
                 h := emit_variable env sc ~h:!h p xi
               | XI32Load _ | XI64Load _ | XF32Load _ | XF64Load _ | XI32Store _ | XI64Store _
               | XF32Store _ | XF64Store _ | XLoadGen _ | XStoreGen _ | XMemorySize
               | XMemoryGrow ->
                 h := emit_memory env sc ~h:!h xi
               | XCall _ | XCallIndirect _ -> h := emit_call env sc ~h:!h xi
               | _ -> h := emit_numeric sc ~h:!h xi);
              p
        in
        pc := last + 1;
        if pr.probed && Option.is_none !term then
          events env sc ~h:!h b.types_at.(last + 1) pr.post.(last)
    done;
    flush env sc ~h:!h;
    let term_closure =
      match !term with
      | Some t -> t
      | None ->
        (* fall through to the next block (a label target), keeping
           the charge mark — tier 0 does not recharge here either *)
        if eb = n then end_edge env ~from_h:!h else jump_to env ~cur eb
    in
    let body_cl = seq (List.rev sc.ops) term_closure in
    (* the charge prologue replicates tier 0's batched fuel/step
       accounting bit for bit: same condition, same amounts, same
       profiler run credit *)
    let len = b.code.c_run_len.(sb) and fid = b.fid in
    fun ctx ->
      if sb >= ctx.charged then begin
        if inst.fuel <= 0 then raise (Exhaustion "out of fuel");
        (match inst.inst_gov with None -> () | Some g -> Governor.check_batch g);
        inst.steps <- inst.steps + len;
        inst.fuel <- inst.fuel - len;
        ctx.charged <- sb + len;
        (match inst.inst_prof with
         | None -> ()
         | Some prof -> Obs.Profile.bump_run prof ~fid ~body_len:n ~pc:sb ~len);
        match inst.inst_triggers with
        | [] -> ()
        | _ -> fire_triggers inst
      end;
      body_cl ctx
  end

(** Compile every block, in increasing order so that back-edge targets
    are final when referenced; returns the function's entry (the
    function-entry probe events, then block 0) and the tally. *)
let emit_body inst b bl bd (r : roles) forms : (ectx -> unit) * tally =
  let cells = Array.map (fun _ -> ref engine_bug) bl.starts in
  let env =
    { inst; b; bl; bd; role = r.role; forms; cells;
      tally = { groups = 0; counted = 0; typed = 0 } }
  in
  Array.iteri (fun blk cell -> cell := compile_block env blk) cells;
  (events_then env ~h:0 [] b.pr.enter !(cells.(0)), env.tally)

(** {1 Pass [frames]: the frame constructor}

    Scratch allocators sized to the body, the parameters by type, and a
    boxed locals array only where a probe event or an i64/f32 local
    reads it; both entries of the compiled body run [entry] on the
    frame. *)
let frames (inst : instance) (b : body) (entry : ectx -> unit) : compiled_body =
  let code = b.code and ltypes = b.ltypes and max_h = b.max_h in
  let nlocals = Array.length ltypes in
  let params_of ty =
    let js = ref [] in
    for j = code.c_nparams - 1 downto 0 do
      if ltypes.(j) = ty then js := j :: !js
    done;
    Array.of_list !js
  in
  let i32_params = params_of I32T and f64_params = params_of F64T in
  let boxed_params = Array.append (params_of I64T) (params_of F32T) in
  let has ty = Array.exists (fun t -> t = ty) ltypes in
  let new_il = int_scratch (if has I32T then nlocals else 0)
  and new_fl = float_scratch (if has F64T then nlocals else 0)
  and new_id = int_scratch max_h
  and new_fd = float_scratch max_h in
  let boxed_locals = b.pr.probed || has I64T || has F32T in
  let defaults = code.c_local_defaults in
  let st = inst.inst_stack in
  (* the boxed locals, reading the i64/f32 parameters from the frame's
     boxed slots; declared locals default to zero *)
  let new_locals base =
    if not boxed_locals then [||]
    else begin
      let locals = Array.make nlocals (Value.I32 0l) in
      Array.blit defaults 0 locals code.c_nparams (Array.length defaults);
      let d = st.data in
      for k = 0 to Array.length boxed_params - 1 do
        let j = Array.unsafe_get boxed_params k in
        Array.unsafe_set locals j (Array.unsafe_get d (base + j))
      done;
      locals
    end
  in
  (* the parameters are all read before the stack may grow, which keeps
     only the slots below its size *)
  let enter base locals il fl =
    stack_reserve st (base + max_h);
    entry { st; locals; il; fl; id = new_id (); fd = new_fd (); base; charged = 0 }
  in
  let cb_enter base =
    let d = st.data in
    let il = new_il () and fl = new_fl () in
    for k = 0 to Array.length i32_params - 1 do
      let j = Array.unsafe_get i32_params k in
      Array.unsafe_set il j (Int32.to_int (Value.as_i32 (Array.unsafe_get d (base + j))))
    done;
    for k = 0 to Array.length f64_params - 1 do
      let j = Array.unsafe_get f64_params k in
      Array.unsafe_set fl j (Value.as_f64 (Array.unsafe_get d (base + j)))
    done;
    enter base (new_locals base) il fl
  in
  let cb_call caller abase =
    let il = new_il () and fl = new_fl () in
    let cid = caller.id and cfd = caller.fd in
    for k = 0 to Array.length i32_params - 1 do
      let j = Array.unsafe_get i32_params k in
      Array.unsafe_set il j (Array.unsafe_get cid (abase + j))
    done;
    for k = 0 to Array.length f64_params - 1 do
      let j = Array.unsafe_get f64_params k in
      Array.unsafe_set fl j (Array.unsafe_get cfd (abase + j))
    done;
    let base = caller.base + abase in
    enter base (new_locals base) il fl
  in
  { cb_enter; cb_call }

(** {1 Public API} *)

let compile_exn (inst : instance) (fid : int) : compiled_body =
  let b = analyze inst fid in
  let bl = blocks b in
  let bd = bind inst b bl in
  let roles = dead_stores b bl (elide b bl bd) in
  let forms = plan b bl bd roles in
  let entry, tally = emit_body inst b bl bd roles forms in
  let inc c k = Obs.Metrics.inc ~by:(Float.of_int k) c in
  if bd.nbound + bd.ngeneric > 0 then begin
    inc (hook_sites_counter "bound") bd.nbound;
    inc (hook_sites_counter "generic") bd.ngeneric
  end;
  if tally.groups > 0 then begin
    inc (count_groups_counter ()) tally.groups;
    inc (counted_sites_counter ()) tally.counted
  end;
  (match forms with [] -> () | _ -> inc (fused_counter ()) (List.length forms));
  if roles.nelided > 0 then inc (elided_counter ()) roles.nelided;
  if tally.typed > 0 then inc (typed_calls_counter ()) tally.typed;
  frames inst b entry


let compile (inst : instance) (fid : int) : compiled_body option =
  try Some (compile_exn inst fid) with Unsupported -> None

let policy ?(threshold = default_threshold) () : tier_policy =
  { tp_threshold = max 1 threshold; tp_compile = compile }

let enable ?threshold inst = set_tier inst (Some (policy ?threshold ()))
let disable inst = set_tier inst None

(** Eagerly compile every function body, marking the rest unsupported;
    returns the number compiled. Installs a threshold-1 policy if none
    is present (so functions instantiated later still tier up). *)
let compile_all inst =
  (match inst.inst_tier with
   | Some _ -> ()
   | None -> set_tier inst (Some (policy ~threshold:1 ())));
  let ok = ref 0 in
  Array.iteri
    (fun i c ->
       (* probed bodies compile with their sites; one the compiler
          declines stays marked, so its next entry reports the decline
          instead of running it on tier 0 without its probes *)
       match compile inst i with
       | Some f ->
         c.c_tier <- T_compiled f;
         incr ok
       | None -> if Option.is_none c.c_probe then c.c_tier <- T_unsupported)
    inst.inst_code;
  !ok
