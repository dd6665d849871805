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
      boxing happens only at call boundaries, returns, globals and the
      generic fallback operators.
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

    The deopt contract: compiled bodies implement the [exec_body]
    calling convention exactly (boxed locals array in, boxed results
    at the frame base on return, traps/exhaustion raised as the same
    exceptions), so tier-0 and tier-1 frames interleave freely on one
    call stack — a compiled function calling an interpreted one and
    vice versa.

    Host calls whose arguments are all constants and [local.get]s
    pushed just before the call, to a callee offering an
    {!Interp.site_binder} (the AOT backend's hooks), compile with their
    pushes to one closure calling the callee's site-specialised entry:
    nothing is boxed and the pushes never materialise.

    Engine probes ({!Interp.probe_hooks}) compile into the same closures:
    at a probe site, and only there, the operands and the local its
    event reads are boxed onto the instance stack / locals array and the
    event fires. An unprobed body compiles to exactly the closures it
    would without probe support. Probed bodies have no tier-0 form.

    Superinstructions ({!fused}) are tier 1's alone. They match over
    the stream as compiled, so a bound counted run, an elided load or a
    dead store between their instructions does not stop them.

    Save/restore elision: a [local.get x] whose operand slot still holds
    [x] compiles to nothing, and in a body with counted runs a store no
    surviving read needs is dead (see [compile_exn]). This drops the
    AOT backend's Table 3 temporaries where only counted sites read
    them; a bound entry or a firing probe event reads its locals, so
    uncounted, faulted and profiled sites keep theirs.

    Counted sites ({!Interp.Site_count}, {!Interp.Probe_count}) read
    nothing of the frame, so they need not run where they stand: the
    counted sites of a trap-free straight-line stretch run together as
    one count group, in site order, at the stretch's end. A stretch ends
    at the first instruction that is not [frame_local], at the first
    event or bound site that is not counted, and at the block's
    terminator or end. The instructions a group is moved across touch
    only the frame's locals and operand slots, which a trap or a
    governor kill discards, and fuel, steps, triggers and the deadline
    are charged at block prologues, which a group never spans. *)

open Types
open Interp

(** Raised (internally) when a body uses a shape the compiler does not
    handle; {!compile} turns it into [None] and the function stays on
    tier 0. *)
exception Unsupported

let default_threshold = 32

(** Per-activation execution context threaded through every compiled
    closure. [base] is the frame's operand base (the stack size on
    entry); [charged] mirrors tier 0's [charged_upto]. The typed
    scratch arrays are indexed by static slot/local index directly:
    [id]/[fd] hold i32/f64 operand slots, [il]/[fl] hold i32/f64
    locals; i64 and f32 slots stay boxed at [st.data.(base + slot)]
    and i64/f32 locals in [locals]. *)
type ectx = {
  st : stack;
  locals : Value.t array;
  il : int array;
  fl : float array;
  id : int array;
  fd : float array;
  base : int;
  mutable charged : int;
}

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

(** {1 Pass 1: static heights and types}

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
let analyze (inst : instance) (code : code) :
  int array * value_type list array * frame list array * int =
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
  let arities ft = (List.length ft.params, List.length ft.results) in
  let pop_ts () =
    match !ts with [] -> raise Unsupported | x :: r -> ts := r; x
  in
  let popn k = for _ = 1 to k do ignore (pop_ts ()) done in
  let push t = ts := t :: !ts in
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
     | Ast.Unreachable -> dead := true
     | Ast.Nop -> ()
     | Ast.Block bt ->
       frames :=
         { f_label = { l_target = end_of.(pc) + 1; l_height = !h; l_ty = bt };
           f_bt = bt; f_ts = !ts; f_entry_dead = !dead; f_loop = false }
         :: !frames
     | Ast.Loop bt ->
       (* a loop label carries no values in the MVP *)
       frames :=
         { f_label = { l_target = pc + 1; l_height = !h; l_ty = None };
           f_bt = bt; f_ts = !ts; f_entry_dead = !dead; f_loop = true }
         :: !frames
     | Ast.If bt ->
       h := !h - 1;
       if not !dead then popn 1;
       frames :=
         { f_label = { l_target = end_of.(pc) + 1; l_height = !h; l_ty = bt };
           f_bt = bt; f_ts = !ts; f_entry_dead = !dead; f_loop = false }
         :: !frames
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
     | Ast.Br _ -> dead := true
     | Ast.BrIf _ ->
       h := !h - 1;
       if not !dead then popn 1
     | Ast.BrTable _ ->
       h := !h - 1;
       if not !dead then popn 1;
       dead := true
     | Ast.Return -> dead := true
     | Ast.Call fidx ->
       let ft = func_type_of inst.inst_funcs.(fidx) in
       let np, nr = arities ft in
       h := !h - np + nr;
       if not !dead then begin
         popn np;
         List.iter push ft.results
       end
     | Ast.CallIndirect tidx ->
       let ft = inst.inst_types.(tidx) in
       let np, nr = arities ft in
       h := !h - 1 - np + nr;
       if not !dead then begin
         popn (1 + np);
         List.iter push ft.results
       end
     | Ast.Drop ->
       h := !h - 1;
       if not !dead then popn 1
     | Ast.Select ->
       h := !h - 2;
       if not !dead then begin
         ignore (pop_ts ());
         let t = pop_ts () in
         ignore (pop_ts ());
         push t
       end
     | Ast.LocalGet x ->
       h := !h + 1;
       if not !dead then
         if x < Array.length ltypes then push ltypes.(x) else raise Unsupported
     | Ast.LocalSet _ ->
       h := !h - 1;
       if not !dead then popn 1
     | Ast.LocalTee _ -> ()
     | Ast.GlobalGet x ->
       h := !h + 1;
       if not !dead then push inst.inst_globals.(x).g_type.content
     | Ast.GlobalSet _ ->
       h := !h - 1;
       if not !dead then popn 1
     | Ast.Load op ->
       if not !dead then begin
         ignore (pop_ts ());
         push op.Ast.lty
       end
     | Ast.Store _ ->
       h := !h - 2;
       if not !dead then popn 2
     | Ast.MemorySize ->
       h := !h + 1;
       if not !dead then push I32T
     | Ast.MemoryGrow ->
       if not !dead then begin
         ignore (pop_ts ());
         push I32T
       end
     | Ast.Const v ->
       h := !h + 1;
       if not !dead then push (type_of_value v)
     | Ast.Test _ ->
       if not !dead then begin
         ignore (pop_ts ());
         push I32T
       end
     | Ast.Compare _ ->
       h := !h - 1;
       if not !dead then begin
         popn 2;
         push I32T
       end
     | Ast.Unary _ -> ()
     | Ast.Convert op ->
       if not !dead then begin
         ignore (pop_ts ());
         push (snd (cvt_types op))
       end
     | Ast.Binary _ ->
       h := !h - 1;
       if not !dead then popn 1);
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
  (heights, types_at, frames_at, !max_h)

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

(** [invoke] with the unboxed arguments of types [ft.params] from slot
    [abase] on boxed before it and its unboxed results unpacked after
    it. *)
let staged_call ~abase (ft : func_type) (invoke : ectx -> unit) : ectx -> unit =
  let stage slot tys =
    chain (List.concat (List.mapi (fun j ty -> Option.to_list (slot ty (abase + j))) tys))
  in
  match stage box_slot ft.params, stage unbox_slot ft.results with
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

(** {1 Pass 2: code generation} *)

(* per-pc roles of the elision pass (see [compile_exn]) *)
let r_plain = '\000'
let r_elided = '\001'
let r_dead = '\002'
let r_counted = '\003'
let r_entry = '\004'

let engine_bug : ectx -> unit =
 fun _ -> raise (Value.Trap "tier1 reached an unreachable block (engine bug)")

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

let read_counter c = int_of_float (Obs.Metrics.counter_value (c ()))

let count_groups () = (read_counter counted_sites_counter, read_counter count_groups_counter)

let peephole () = (read_counter fused_counter, read_counter elided_counter)

(** Straight-line code under construction: the closures emitted so far
    (reversed) and the counted sites of the open count group
    (reversed). *)
type stretch = {
  mutable ops : (ectx -> unit) list;
  mutable pending : counted list;
}

let empty_ints : int array = [||]
let empty_floats : float array = [||]

let compile_exn (inst : instance) (fid : int) : compiled_body =
  let code = inst.inst_code.(fid) in
  let body = code.c_body in
  let xbody = code.c_xbody in
  let run_len = code.c_run_len in
  let end_of = code.c_jumps.end_of in
  let n = Array.length body in
  let results = code.c_type.results in
  let ltypes = Array.of_list (code.c_type.params @ code.c_func.Ast.locals) in
  let nlocals = Array.length ltypes in
  let local_ty x = if x < nlocals then ltypes.(x) else raise Unsupported in
  let want_local ty x = if local_ty x <> ty then raise Unsupported in
  let heights, types_at, frames_at, max_h = analyze inst code in
  (* basic blocks: a block starts at 0, after every control transfer,
     and at every label target (= tier 0's fresh-charge points plus the
     positions branches resolve to) *)
  let is_start = Array.make (n + 1) false in
  is_start.(0) <- true;
  is_start.(n) <- true;
  for pc = 0 to n - 1 do
    (match body.(pc) with
     | Ast.If _ | Ast.Else | Ast.Br _ | Ast.BrIf _ | Ast.BrTable _
     | Ast.Return | Ast.Unreachable ->
       is_start.(pc + 1) <- true
     | _ -> ());
    match body.(pc) with
    | Ast.Block _ | Ast.If _ -> is_start.(end_of.(pc) + 1) <- true
    | Ast.Loop _ ->
      is_start.(pc + 1) <- true;
      is_start.(end_of.(pc) + 1) <- true
    | _ -> ()
  done;
  let block_of = Array.make (n + 1) (-1) in
  let nblocks = ref 0 in
  for pc = 0 to n do
    if is_start.(pc) then begin
      block_of.(pc) <- !nblocks;
      incr nblocks
    end
  done;
  let starts = Array.make !nblocks 0 in
  for pc = n downto 0 do
    if is_start.(pc) then starts.(block_of.(pc)) <- pc
  done;
  let cells : (ectx -> unit) ref array =
    Array.init !nblocks (fun _ -> ref engine_bug)
  in
  (* engine-probe sites: dense per-pc views of the sparse table *)
  let probed, pre, post, enter, exit =
    match code.c_probe with
    | None -> (false, [||], [||], [], [])
    | Some ph ->
      let pre = Array.make n [] and post = Array.make n [] in
      Array.iter
        (fun s ->
           pre.(s.site_pc) <- s.site_pre;
           post.(s.site_pc) <- s.site_post)
        ph.ph_sites;
      (true, pre, post, ph.ph_enter, ph.ph_exit)
  in
  (* bound host call sites: a call to a result-less host function whose
     arguments are all pushed by constants and [local.get]s inside the
     call's block, at no probe site, compiles (pushes included) to the
     callee's site-specialised entry. One backward walk
     from each call finds the run; [bound.(p)] holds the entry of the
     run starting at [p] and the call's pc. *)
  let bound = ref [||] in
  let nbound = ref 0 and ngeneric = ref 0 in
  let quiet p = not probed || (match pre.(p), post.(p) with [], [] -> true | _ -> false) in
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
      if is_start.(p + 1) || not (quiet p) then None
      else
        match site_arg ty p with
        | Some a -> site_args (p - 1) rest (a :: acc)
        | None -> None
  in
  for pc = 0 to n - 1 do
    match xbody.(pc) with
    | XCall fidx when heights.(pc) >= 0 ->
      (* (a call in unreachable code compiles to nothing) *)
      (match inst.inst_funcs.(fidx) with
       | Host_func { h_bind = Some b; h_type = { params; results }; h_nparams; _ } ->
         let p0 = pc - h_nparams in
         let entry =
           if results <> [] || p0 < 0 || not (quiet pc) then None
           else
             match site_args (pc - 1) (List.rev params) [] with
             | Some args -> b.bind (Array.of_list args)
             | None -> None
         in
         (match entry with
          | Some e ->
            if Array.length !bound = 0 then bound := Array.make n None;
            !bound.(p0) <- Some (e, pc);
            incr nbound
          | None -> incr ngeneric)
       | _ -> ())
    | _ -> ()
  done;
  let bound = !bound in
  let bound_at p = if Array.length bound = 0 then None else bound.(p) in
  (* Save/restore elision. A [local.get x] whose operand slot still
     holds the value of [x] compiles to nothing. Per block, [facts.(s)]
     is the local slot [s] holds: a [local.get], [local.set] or
     [local.tee] of [x] records it, and it is dropped by any
     instruction that pops or writes slot [s], any write to [x], any
     call, bound entry or firing probe event. [role] marks these elided
     loads and the instructions of bound runs. *)
  let role = Bytes.make n r_plain in
  let nb = !nblocks in
  let facts = Array.make (max_h + 1) (-1) in
  let ftop = ref 0 in
  let forget_from s =
    let s = if s < 0 then 0 else s in
    for i = s to !ftop - 1 do
      facts.(i) <- -1
    done;
    if s < !ftop then ftop := s
  in
  let fires evs = List.exists (function Probe_fire _ -> true | Probe_count _ -> false) evs in
  let counted_runs = ref 0 in
  for b = 0 to nb - 1 do
    let sb = starts.(b) in
    if sb < n && heights.(sb) >= 0 then begin
      forget_from 0;
      let p = ref sb in
      while !p < starts.(b + 1) do
        let q = !p in
        match bound_at q with
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
          if probed && fires pre.(q) then forget_from 0;
          (match xbody.(q) with
           | XLocalGet x ->
             if facts.(h) = x then Bytes.set role q r_elided
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
          if probed && fires post.(q) then forget_from 0;
          p := q + 1
      done
    end
  done;
  (* Dead stores. In an unprobed body with counted runs, one backward
     liveness pass over the blocks counts only the reads that survive
     compilation (not an elided load, not the argument pushes of a
     counted run), and a store to a local no surviving read needs
     compiles to a pop ([mark_dead]). Liveness is kept per block only:
     [gen] (read before any write in the block), [kill] (written) and
     [live] (live on entry), 32 locals a word. Other bodies skip the
     pass: without counted runs a store can lose only reads that an
     elided load replaced, which leaves few stores dead, and compiling
     uninstrumented code stays cheap. *)
  let dead_stores = !counted_runs > 0 && not probed in
  let w = (nlocals + 31) lsr 5 in
  let live = Array.make (if dead_stores then nb * w else 0) 0 in
  let out = Array.make w 0 in
  let succs = Array.make nb [] in
  if dead_stores then begin
    let gen = Array.make (nb * w) 0 and kill = Array.make (nb * w) 0 in
    for b = 0 to nb - 1 do
      let sb = starts.(b) and o = b * w in
      if sb < n && heights.(sb) >= 0 then begin
        let eb = starts.(b + 1) in
        for q = sb to eb - 1 do
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
          match List.nth_opt frames_at.(last) k with
          | Some f -> block_of.(f.f_label.l_target)
          | None -> -1
        in
        succs.(b) <-
          List.filter (fun t -> t >= 0)
            (match xbody.(last) with
             | XBr k -> [ label k ]
             | XBrIf k -> [ label k; b + 1 ]
             | XBrTable tbl -> Array.to_list (Array.map label tbl)
             | XIf (e, _) | XIfElse (e, _, _) -> [ b + 1; block_of.(e) ]
             | XElse e -> [ block_of.(e) ]
             | XReturn | XUnreachable -> []
             | _ -> [ b + 1 ])
      end
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      for b = nb - 1 downto 0 do
        for i = 0 to w - 1 do
          let o = (b * w) + i in
          let out = List.fold_left (fun acc t -> acc lor live.((t * w) + i)) 0 succs.(b) in
          let v = gen.(o) lor (out land lnot kill.(o)) in
          if v <> live.(o) then begin
            live.(o) <- v;
            changed := true
          end
        done
      done
    done
  end;
  (* mark the dead stores of block [b] ([sb] to [eb]), walking back from
     its live-out set *)
  let mark_dead b sb eb =
    for i = 0 to w - 1 do
      out.(i) <- List.fold_left (fun acc t -> acc lor live.((t * w) + i)) 0 succs.(b)
    done;
    for q = eb - 1 downto sb do
      match Bytes.get role q, xbody.(q) with
      | r, XLocalGet x when r = r_plain || r = r_entry ->
        out.(x lsr 5) <- out.(x lsr 5) lor (1 lsl (x land 31))
      | r, (XLocalSet x | XLocalTee x) when r = r_plain ->
        let m = 1 lsl (x land 31) in
        if out.(x lsr 5) land m = 0 then Bytes.set role q r_dead;
        out.(x lsr 5) <- out.(x lsr 5) land lnot m
      | _ -> ()
    done
  in
  (* Superinstruction fusion over the stream as compiled: from [p], the
     next (up to four) instructions of its block that compile to code,
     skipping elided loads, dead stores and bound counted runs; the
     counted sites met on the way join the open count group, in order.
     A firing probe event or a bound entry ends the window, which is not
     walked when the next instruction cannot continue any form.
     [win_pc.(i)]: instruction [i]; [win_acc.(i)], [win_skip.(i)]: the
     counted sites (in [acc], newest first) and the instructions
     compiled away before it. With a form, [win_last] is its last
     instruction, [acc] its counted sites, [win_skipped] what it skips. *)
  let win_pc = Array.make 4 0 and win_acc = Array.make 4 0 and win_skip = Array.make 4 0 in
  let acc = ref [] and nacc = ref 0 and win_last = ref 0 and win_skipped = ref 0 in
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
      when probed || next >= eb || Option.is_some (bound_at next)
           || Bytes.get role next <> r_plain || fusible_pair x0 xbody.(next) ->
      if !nacc > 0 then begin
        acc := [];
        nacc := 0
      end;
      let skip = ref 0 and len = ref 0 and q = ref p and open_ = ref true in
      (* instruction [!len] is sought from [!q] *)
      while !open_ && !len < 4 && !q < eb do
        match bound_at !q with
        | Some (Site_count c, cp) ->
          acc := Count_hook c :: !acc;
          incr nacc;
          q := cp + 1
        | Some (Site_entry _, _) -> open_ := false
        | None ->
          (* the events of [p] before it have run *)
          if probed && !q > p && not (counted_at pre !q) then open_ := false
          else begin
            if Bytes.get role !q <> r_plain then incr skip
            else if !len = 1 && not (fusible_pair x0 xbody.(!q)) then open_ := false
            else begin
              win_pc.(!len) <- !q;
              win_acc.(!len) <- !nacc;
              win_skip.(!len) <- !skip;
              incr len
            end;
            if probed && !open_ && not (counted_at post !q) then open_ := false;
            incr q
          end
      done;
      if !len < 2 then None
      else begin
        let f = fuse xbody heights win_pc !len in
        (match f with
         | None -> ()
         | Some f ->
           let last = fused_len f - 1 in
           win_last := win_pc.(last);
           win_skipped := win_skip.(last);
           (* the counted sites met before the form's last instruction *)
           for _ = win_acc.(last) + 1 to !nacc do
             acc := List.tl !acc
           done);
        f
      end
    | _ -> None
  in
  (* fire a probe event at operand height [h] ([tys]: the type stack
     there, top first): box the operands and the local it reads, expose
     the height as the stack size, call it *)
  let fire_at ~h tys (ev : probe_fire) : ectx -> unit =
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
        match local_ty x with
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
  in
  (* the count groups compiled and the sites in them, the
     superinstructions and the instructions compiled away *)
  let ngroups = ref 0 and ncounted = ref 0 in
  let nfused = ref 0 and nelided = ref 0 in
  (* close the open count group, if any, at operand height [h] *)
  let flush sc ~h =
    match sc.pending with
    | [] -> ()
    | sites ->
      sc.ops <- count_group inst ~h (List.rev sites) :: sc.ops;
      incr ngroups;
      ncounted := !ncounted + List.length sites;
      sc.pending <- []
  in
  (* probe events [evs] at height [h], in order: a counted one joins the
     open group, any other closes it and fires *)
  let events sc ~h tys evs =
    List.iter
      (function
        | Probe_count (e, c) -> sc.pending <- Count_probe (e, c) :: sc.pending
        | Probe_fire f ->
          flush sc ~h;
          sc.ops <- fire_at ~h tys f :: sc.ops)
      evs
  in
  (* the closure running probe events [evs] at height [h], then [k] *)
  let events_then ~h tys evs (k : ectx -> unit) : ectx -> unit =
    match evs with
    | [] -> k
    | _ ->
      let sc = { ops = []; pending = [] } in
      events sc ~h tys evs;
      flush sc ~h;
      seq (List.rev sc.ops) k
  in
  (* blocks are compiled in increasing index order, so a back-edge
     (the loop case) can capture the final target closure directly;
     forward and self edges go through the target's cell *)
  let jump_to ~cur (target : int) : ectx -> unit =
    let bi = block_of.(target) in
    if bi < 0 then raise Unsupported;
    if bi < cur then !(cells.(bi))
    else begin
      let cell = cells.(bi) in
      fun ctx -> !cell ctx
    end
  in
  (* returning: box the result (if any) at the frame base and
     materialise the stack size; ends the tail-call chain *)
  let ret_edge ~from_h : ectx -> unit =
    match results with
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
  in
  (* a taken branch: copy the carried value down to the label height,
     reset the charge mark, tail-jump to the target block *)
  let label_edge ~cur ~from_h (l : label) : ectx -> unit =
    let jmp = jump_to ~cur l.l_target in
    match l.l_ty with
    | None ->
      if from_h < l.l_height then raise Unsupported;
      fun ctx ->
        ctx.charged <- 0;
        jmp ctx
    | Some ty ->
      let src = from_h - 1
      and dst = l.l_height in
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
  in
  (* relative label [k] at a branch site: label if in range, else the
     function return (tier 0's [branch] does the same) *)
  let branch_edge ~cur ~from_h frames k : ectx -> unit =
    match List.nth_opt frames k with
    | Some f -> label_edge ~cur ~from_h f.f_label
    | None -> ret_edge ~from_h
  in
  (* the implicit fall-off-the-end exit, the one place the function-exit
     probe fires *)
  let end_edge ~from_h : ectx -> unit = events_then ~h:from_h types_at.(n) exit (ret_edge ~from_h) in
  let with_mem (k : Memory.t -> ectx -> unit) : ectx -> unit =
    match inst.inst_memory with
    | Some m -> k m
    | None -> fun _ -> raise (Value.Trap "no memory")
  in
  let emit sc f = sc.ops <- f :: sc.ops in
  let finish term t = term := Some t in
  (* superinstruction [f] ending at [q], at operand height [!h] (that
     of its first instruction) *)
  let compile_fused sc term h ~cur f q =
    match f with
    | I32BinLL (op, a, b) ->
      want_local I32T a;
      want_local I32T b;
      let s = !h in
      (match op with
       | Ast.Add ->
         emit sc (fun ctx ->
           let il = ctx.il in
           Array.unsafe_set ctx.id s
             (Eval_numeric.norm32
                (Array.unsafe_get il a + Array.unsafe_get il b)))
       | _ ->
         let f = Eval_numeric.ibinop_i32_int op in
         emit sc (fun ctx ->
           let il = ctx.il in
           Array.unsafe_set ctx.id s
             (f (Array.unsafe_get il a) (Array.unsafe_get il b))));
      h := !h + 1
    | I32BinLC (op, a, c) ->
      want_local I32T a;
      let ci = Int32.to_int c in
      let s = !h in
      (match op with
       | Ast.Add ->
         emit sc (fun ctx ->
           Array.unsafe_set ctx.id s
             (Eval_numeric.norm32 (Array.unsafe_get ctx.il a + ci)))
       | _ ->
         let f = Eval_numeric.ibinop_i32_int op in
         emit sc (fun ctx ->
           Array.unsafe_set ctx.id s (f (Array.unsafe_get ctx.il a) ci)));
      h := !h + 1
    | I32BinSL (op, b) ->
      want_local I32T b;
      let s = !h - 1 in
      (match op with
       | Ast.Add ->
         emit sc (fun ctx ->
           let id = ctx.id in
           Array.unsafe_set id s
             (Eval_numeric.norm32
                (Array.unsafe_get id s + Array.unsafe_get ctx.il b)))
       | _ ->
         let f = Eval_numeric.ibinop_i32_int op in
         emit sc (fun ctx ->
           let id = ctx.id in
           Array.unsafe_set id s
             (f (Array.unsafe_get id s) (Array.unsafe_get ctx.il b))))
    | I32BinSC (op, c) ->
      let ci = Int32.to_int c in
      let s = !h - 1 in
      (match op with
       | Ast.Add ->
         emit sc (fun ctx ->
           let id = ctx.id in
           Array.unsafe_set id s
             (Eval_numeric.norm32 (Array.unsafe_get id s + ci)))
       | _ ->
         let f = Eval_numeric.ibinop_i32_int op in
         emit sc (fun ctx ->
           let id = ctx.id in
           Array.unsafe_set id s (f (Array.unsafe_get id s) ci)))
    | F64BinLL (op, a, b) ->
      want_local F64T a;
      want_local F64T b;
      let s = !h in
      (match op with
       | Ast.FAdd ->
         emit sc (fun ctx ->
           let fl = ctx.fl in
           Array.unsafe_set ctx.fd s
             (Array.unsafe_get fl a +. Array.unsafe_get fl b))
       | Ast.FSub ->
         emit sc (fun ctx ->
           let fl = ctx.fl in
           Array.unsafe_set ctx.fd s
             (Array.unsafe_get fl a -. Array.unsafe_get fl b))
       | Ast.FMul ->
         emit sc (fun ctx ->
           let fl = ctx.fl in
           Array.unsafe_set ctx.fd s
             (Array.unsafe_get fl a *. Array.unsafe_get fl b))
       | Ast.FDiv ->
         emit sc (fun ctx ->
           let fl = ctx.fl in
           Array.unsafe_set ctx.fd s
             (Array.unsafe_get fl a /. Array.unsafe_get fl b))
       | Ast.Min | Ast.Max | Ast.CopySign ->
         let f = Eval_numeric.fbinop_fn op in
         emit sc (fun ctx ->
           let fl = ctx.fl in
           Array.unsafe_set ctx.fd s
             (f (Array.unsafe_get fl a) (Array.unsafe_get fl b))));
      h := !h + 1
    | F64BinSL (op, b) ->
      want_local F64T b;
      let s = !h - 1 in
      (match op with
       | Ast.FAdd ->
         emit sc (fun ctx ->
           let fd = ctx.fd in
           Array.unsafe_set fd s
             (Array.unsafe_get fd s +. Array.unsafe_get ctx.fl b))
       | Ast.FSub ->
         emit sc (fun ctx ->
           let fd = ctx.fd in
           Array.unsafe_set fd s
             (Array.unsafe_get fd s -. Array.unsafe_get ctx.fl b))
       | Ast.FMul ->
         emit sc (fun ctx ->
           let fd = ctx.fd in
           Array.unsafe_set fd s
             (Array.unsafe_get fd s *. Array.unsafe_get ctx.fl b))
       | Ast.FDiv ->
         emit sc (fun ctx ->
           let fd = ctx.fd in
           Array.unsafe_set fd s
             (Array.unsafe_get fd s /. Array.unsafe_get ctx.fl b))
       | Ast.Min | Ast.Max | Ast.CopySign ->
         let f = Eval_numeric.fbinop_fn op in
         emit sc (fun ctx ->
           let fd = ctx.fd in
           Array.unsafe_set fd s
             (f (Array.unsafe_get fd s) (Array.unsafe_get ctx.fl b))))
    | F64BinSC (op, c) ->
      let s = !h - 1 in
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
           Array.unsafe_set fd s (f (Array.unsafe_get fd s) c)))
    | IncrL (x, c) ->
      (* the sum also lands in its operand slot, which the elision
         pass takes to hold [x] *)
      want_local I32T x;
      let ci = Int32.to_int c in
      let s = !h in
      emit sc (fun ctx ->
        let v = Eval_numeric.norm32 (Array.unsafe_get ctx.il x + ci) in
        Array.unsafe_set ctx.il x v;
        Array.unsafe_set ctx.id s v)
    | I32LoadScaled (c, off) ->
      let ci = Int32.to_int c in
      let s = !h - 2 in
      emit sc
        (with_mem (fun m ctx ->
           let id = ctx.id in
           let addr =
             (Array.unsafe_get id s + (Array.unsafe_get id (s + 1) * ci))
             land 0xFFFFFFFF
           in
           Array.unsafe_set id s (Memory.load_i32_u m addr off)));
      h := !h - 1
    | F64LoadScaled (c, off) ->
      let ci = Int32.to_int c in
      let s = !h - 2 in
      emit sc
        (with_mem (fun m ctx ->
           let id = ctx.id in
           let addr =
             (Array.unsafe_get id s + (Array.unsafe_get id (s + 1) * ci))
             land 0xFFFFFFFF
           in
           Array.unsafe_set ctx.fd s (Memory.load_f64_u m addr off)));
      h := !h - 1
    | I32LoadL (a, off) ->
      want_local I32T a;
      let s = !h in
      emit sc
        (with_mem (fun m ctx ->
           Array.unsafe_set ctx.id s
             (Memory.load_i32_u m
                (Array.unsafe_get ctx.il a land 0xFFFFFFFF)
                off)));
      h := !h + 1
    | F64LoadL (a, off) ->
      want_local I32T a;
      let s = !h in
      emit sc
        (with_mem (fun m ctx ->
           Array.unsafe_set ctx.fd s
             (Memory.load_f64_u m
                (Array.unsafe_get ctx.il a land 0xFFFFFFFF)
                off)));
      h := !h + 1
    | BrIfRelLL (r, a, b, k) ->
      want_local I32T a;
      want_local I32T b;
      let taken = branch_edge ~cur ~from_h:!h frames_at.(q) k in
      let next = jump_to ~cur (q + 1) in
      (* the loop-controlling comparison: every relop inlined so
         the back-edge test costs no closure call *)
      (match r with
       | Ast.Eq ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a = Array.unsafe_get ctx.il b then
             taken ctx
           else next ctx)
       | Ast.Ne ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a <> Array.unsafe_get ctx.il b then
             taken ctx
           else next ctx)
       | Ast.LtS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a < Array.unsafe_get ctx.il b then
             taken ctx
           else next ctx)
       | Ast.LtU ->
         finish term (fun ctx ->
           if
             Array.unsafe_get ctx.il a land 0xFFFFFFFF
             < Array.unsafe_get ctx.il b land 0xFFFFFFFF
           then taken ctx
           else next ctx)
       | Ast.GtS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a > Array.unsafe_get ctx.il b then
             taken ctx
           else next ctx)
       | Ast.GtU ->
         finish term (fun ctx ->
           if
             Array.unsafe_get ctx.il a land 0xFFFFFFFF
             > Array.unsafe_get ctx.il b land 0xFFFFFFFF
           then taken ctx
           else next ctx)
       | Ast.LeS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a <= Array.unsafe_get ctx.il b then
             taken ctx
           else next ctx)
       | Ast.LeU ->
         finish term (fun ctx ->
           if
             Array.unsafe_get ctx.il a land 0xFFFFFFFF
             <= Array.unsafe_get ctx.il b land 0xFFFFFFFF
           then taken ctx
           else next ctx)
       | Ast.GeS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a >= Array.unsafe_get ctx.il b then
             taken ctx
           else next ctx)
       | Ast.GeU ->
         finish term (fun ctx ->
           if
             Array.unsafe_get ctx.il a land 0xFFFFFFFF
             >= Array.unsafe_get ctx.il b land 0xFFFFFFFF
           then taken ctx
           else next ctx))
    | BrIfRelLC (r, a, c, k) ->
      want_local I32T a;
      let ci = Int32.to_int c in
      let cu = ci land 0xFFFFFFFF in
      let taken = branch_edge ~cur ~from_h:!h frames_at.(q) k in
      let next = jump_to ~cur (q + 1) in
      (match r with
       | Ast.Eq ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a = ci then taken ctx else next ctx)
       | Ast.Ne ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a <> ci then taken ctx else next ctx)
       | Ast.LtS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a < ci then taken ctx else next ctx)
       | Ast.LtU ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a land 0xFFFFFFFF < cu then taken ctx
           else next ctx)
       | Ast.GtS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a > ci then taken ctx else next ctx)
       | Ast.GtU ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a land 0xFFFFFFFF > cu then taken ctx
           else next ctx)
       | Ast.LeS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a <= ci then taken ctx else next ctx)
       | Ast.LeU ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a land 0xFFFFFFFF <= cu then taken ctx
           else next ctx)
       | Ast.GeS ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a >= ci then taken ctx else next ctx)
       | Ast.GeU ->
         finish term (fun ctx ->
           if Array.unsafe_get ctx.il a land 0xFFFFFFFF >= cu then taken ctx
           else next ctx))
    | BrIfRel (r, k) ->
      let f = Eval_numeric.irelop_i32_int r in
      let s = !h - 2 in
      let taken = branch_edge ~cur ~from_h:(!h - 2) frames_at.(q) k in
      let next = jump_to ~cur (q + 1) in
      finish term (fun ctx ->
        let id = ctx.id in
        if f (Array.unsafe_get id s) (Array.unsafe_get id (s + 1)) then
          taken ctx
        else next ctx)
    | BrIfEqz k ->
      let s = !h - 1 in
      let taken = branch_edge ~cur ~from_h:(!h - 1) frames_at.(q) k in
      let next = jump_to ~cur (q + 1) in
      finish term (fun ctx ->
        if Array.unsafe_get ctx.id s = 0 then taken ctx else next ctx)
  in
  let compile_block cur : ectx -> unit =
    let sb = starts.(cur) in
    if sb = n then
      if heights.(n) >= 0 then end_edge ~from_h:heights.(n) else engine_bug
    else if heights.(sb) < 0 then engine_bug
    else begin
      let eb = starts.(cur + 1) in
      if dead_stores then mark_dead cur sb eb;
      let h = ref heights.(sb) in
      let sc = { ops = []; pending = [] } in
      let term : (ectx -> unit) option ref = ref None in
      let emit f = sc.ops <- f :: sc.ops in
      let finish t = term := Some t in
      let pc = ref sb in
      while Option.is_none !term && !pc < eb do
        let p = !pc in
        if heights.(p) >= 0 && heights.(p) <> !h then raise Unsupported;
        let last = ref p in
        let step len = pc := p + len in
        (* a bound run compiles whole; everything else instruction by
           instruction or as a superinstruction *)
        match bound_at p with
        | Some (Site_count c, call_pc) ->
          sc.pending <- Count_hook c :: sc.pending;
          step (call_pc + 1 - p)
        | Some (Site_entry entry, call_pc) ->
          (* the call's side effects as [call_host] has them: governor
             count, then the stack size at the height below the
             arguments, so the entry may re-enter the engine *)
          flush sc ~h:!h;
          let hp = !h in
          emit (fun ctx ->
            (match inst.inst_gov with None -> () | Some g -> Governor.count_host_call g);
            ctx.st.size <- ctx.base + hp;
            entry ctx);
          step (call_pc + 1 - p)
        | None ->
        if probed then events sc ~h:!h types_at.(p) pre.(p);
        (if Bytes.get role p <> r_plain then begin
           (* compiled away: an elided load pushes, a dead store pops *)
           incr nelided;
           (match xbody.(p) with XLocalGet _ -> incr h | XLocalSet _ -> decr h | _ -> ());
           step 1
         end
         else
           match window eb p with
           | Some f ->
             let q = !win_last in
             sc.pending <- !acc @ sc.pending;
             nelided := !nelided + !win_skipped;
             incr nfused;
             (* only a form's last instruction may trap or leave the frame *)
             if not (frame_local xbody.(q)) then flush sc ~h:!h;
             compile_fused sc term h ~cur f q;
             last := q;
             pc := q + 1
           | None ->
        let x = xbody.(p) in
        if not (frame_local x) then flush sc ~h:!h;
        (match x with
         (* no-ops at run time: all control bookkeeping is static *)
         | XNop | XBlock _ | XLoop | XEnd -> step 1
         | XDrop ->
           h := !h - 1;
           step 1
         | XSelect ->
           let s = !h - 3 in
           let ty =
             match types_at.(p) with
             | _cond :: ty :: _ -> ty
             | _ -> raise Unsupported
           in
           (match ty with
            | I32T ->
              emit (fun ctx ->
                let id = ctx.id in
                if Array.unsafe_get id (s + 2) = 0 then
                  Array.unsafe_set id s (Array.unsafe_get id (s + 1)))
            | F64T ->
              emit (fun ctx ->
                if Array.unsafe_get ctx.id (s + 2) = 0 then
                  Array.unsafe_set ctx.fd s (Array.unsafe_get ctx.fd (s + 1)))
            | I64T | F32T ->
              emit (fun ctx ->
                if Array.unsafe_get ctx.id (s + 2) = 0 then begin
                  let d = ctx.st.data in
                  let b = ctx.base + s in
                  Array.unsafe_set d b (Array.unsafe_get d (b + 1))
                end));
           h := !h - 2;
           step 1
         | XLocalGet x ->
           let s = !h in
           (match local_ty x with
            | I32T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.id s (Array.unsafe_get ctx.il x))
            | F64T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.fd s (Array.unsafe_get ctx.fl x))
            | I64T | F32T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.st.data (ctx.base + s)
                  (Array.unsafe_get ctx.locals x)));
           h := !h + 1;
           step 1
         | XLocalSet x | XLocalTee x ->
           let s = !h - 1 in
           (match local_ty x with
            | I32T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.il x (Array.unsafe_get ctx.id s))
            | F64T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.fl x (Array.unsafe_get ctx.fd s))
            | I64T | F32T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.locals x
                  (Array.unsafe_get ctx.st.data (ctx.base + s))));
           (match xbody.(p) with XLocalSet _ -> h := s | _ -> ());
           step 1
         | XGlobalGet x ->
           let g = inst.inst_globals.(x) in
           let s = !h in
           (match g.g_type.content with
            | I32T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.id s (Int32.to_int (Value.as_i32 g.g_value)))
            | F64T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.fd s (Value.as_f64 g.g_value))
            | I64T | F32T ->
              emit (fun ctx ->
                Array.unsafe_set ctx.st.data (ctx.base + s) g.g_value));
           h := !h + 1;
           step 1
         | XGlobalSet x ->
           let g = inst.inst_globals.(x) in
           let s = !h - 1 in
           (match g.g_type.content with
            | I32T ->
              emit (fun ctx ->
                g.g_value <- Value.I32 (Int32.of_int (Array.unsafe_get ctx.id s)))
            | F64T ->
              emit (fun ctx -> g.g_value <- Value.F64 (Array.unsafe_get ctx.fd s))
            | I64T | F32T ->
              emit (fun ctx ->
                g.g_value <- Array.unsafe_get ctx.st.data (ctx.base + s)));
           h := !h - 1;
           step 1
         | XConst v ->
           let s = !h in
           (match v with
            | Value.I32 c ->
              let ci = Int32.to_int c in
              emit (fun ctx -> Array.unsafe_set ctx.id s ci)
            | Value.F64 f -> emit (fun ctx -> Array.unsafe_set ctx.fd s f)
            | Value.I64 _ | Value.F32 _ ->
              emit (fun ctx -> Array.unsafe_set ctx.st.data (ctx.base + s) v));
           h := !h + 1;
           step 1
         | XI32Load off ->
           let s = !h - 1 in
           emit
             (with_mem (fun m ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Memory.load_i32_u m (Array.unsafe_get id s land 0xFFFFFFFF) off)));
           step 1
         | XI64Load off ->
           let s = !h - 1 in
           emit
             (with_mem (fun m ctx ->
                let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
                Array.unsafe_set ctx.st.data (ctx.base + s)
                  (Value.I64 (Memory.load_i64 m addr off))));
           step 1
         | XF32Load off ->
           let s = !h - 1 in
           emit
             (with_mem (fun m ctx ->
                let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
                Array.unsafe_set ctx.st.data (ctx.base + s)
                  (Value.F32 (Memory.load_f32_bits m addr off))));
           step 1
         | XF64Load off ->
           let s = !h - 1 in
           emit
             (with_mem (fun m ctx ->
                Array.unsafe_set ctx.fd s
                  (Memory.load_f64_u m
                     (Array.unsafe_get ctx.id s land 0xFFFFFFFF)
                     off)));
           step 1
         | XI32Store off ->
           let s = !h - 2 in
           emit
             (with_mem (fun m ctx ->
                let id = ctx.id in
                Memory.store_i32_u m
                  (Array.unsafe_get id s land 0xFFFFFFFF)
                  off
                  (Array.unsafe_get id (s + 1))));
           h := !h - 2;
           step 1
         | XI64Store off ->
           let s = !h - 2 in
           emit
             (with_mem (fun m ctx ->
                let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
                Memory.store_i64 m addr off
                  (Value.as_i64 (Array.unsafe_get ctx.st.data (ctx.base + s + 1)))));
           h := !h - 2;
           step 1
         | XF32Store off ->
           let s = !h - 2 in
           emit
             (with_mem (fun m ctx ->
                let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
                Memory.store_f32_bits m addr off
                  (Value.as_f32_bits
                     (Array.unsafe_get ctx.st.data (ctx.base + s + 1)))));
           h := !h - 2;
           step 1
         | XF64Store off ->
           let s = !h - 2 in
           emit
             (with_mem (fun m ctx ->
                Memory.store_f64_u m
                  (Array.unsafe_get ctx.id s land 0xFFFFFFFF)
                  off
                  (Array.unsafe_get ctx.fd (s + 1))));
           h := !h - 2;
           step 1
         | XLoadGen op ->
           let s = !h - 1 in
           (match op.Ast.lty with
            | I32T ->
              emit
                (with_mem (fun m ctx ->
                   let id = ctx.id in
                   let addr = Int32.of_int (Array.unsafe_get id s) in
                   Array.unsafe_set id s
                     (Int32.to_int (Value.as_i32 (Memory.load m op addr)))))
            | F64T ->
              emit
                (with_mem (fun m ctx ->
                   let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
                   Array.unsafe_set ctx.fd s (Value.as_f64 (Memory.load m op addr))))
            | I64T | F32T ->
              emit
                (with_mem (fun m ctx ->
                   let addr = Int32.of_int (Array.unsafe_get ctx.id s) in
                   Array.unsafe_set ctx.st.data (ctx.base + s)
                     (Memory.load m op addr))));
           step 1
         | XStoreGen op ->
           let s = !h - 2 in
           (match op.Ast.sty with
            | I32T ->
              emit
                (with_mem (fun m ctx ->
                   let id = ctx.id in
                   Memory.store m op
                     (Int32.of_int (Array.unsafe_get id s))
                     (Value.I32 (Int32.of_int (Array.unsafe_get id (s + 1))))))
            | F64T ->
              emit
                (with_mem (fun m ctx ->
                   Memory.store m op
                     (Int32.of_int (Array.unsafe_get ctx.id s))
                     (Value.F64 (Array.unsafe_get ctx.fd (s + 1)))))
            | I64T | F32T ->
              emit
                (with_mem (fun m ctx ->
                   Memory.store m op
                     (Int32.of_int (Array.unsafe_get ctx.id s))
                     (Array.unsafe_get ctx.st.data (ctx.base + s + 1)))));
           h := !h - 2;
           step 1
         | XMemorySize ->
           let s = !h in
           emit
             (with_mem (fun m ctx ->
                Array.unsafe_set ctx.id s (Memory.size_pages m)));
           h := !h + 1;
           step 1
         | XMemoryGrow ->
           let s = !h - 1 in
           emit
             (with_mem (fun m ctx ->
                let id = ctx.id in
                let old =
                  match inst.inst_gov with
                  | None -> Memory.grow m (Array.unsafe_get id s)
                  | Some g -> Governor.governed_grow g m (Array.unsafe_get id s)
                in
                Array.unsafe_set id s old));
           step 1
         | XI32Eqz ->
           let s = !h - 1 in
           emit (fun ctx ->
             let id = ctx.id in
             Array.unsafe_set id s (if Array.unsafe_get id s = 0 then 1 else 0));
           step 1
         | XI32Bin op ->
           let s = !h - 2 in
           (match op with
            | Ast.Add ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Eval_numeric.norm32
                     (Array.unsafe_get id s + Array.unsafe_get id (s + 1))))
            | Ast.Sub ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Eval_numeric.norm32
                     (Array.unsafe_get id s - Array.unsafe_get id (s + 1))))
            | Ast.Mul ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Eval_numeric.norm32
                     (Array.unsafe_get id s * Array.unsafe_get id (s + 1))))
            | Ast.And ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Array.unsafe_get id s land Array.unsafe_get id (s + 1)))
            | Ast.Or ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Array.unsafe_get id s lor Array.unsafe_get id (s + 1)))
            | Ast.Xor ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Array.unsafe_get id s lxor Array.unsafe_get id (s + 1)))
            | Ast.Shl ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Eval_numeric.norm32
                     (Array.unsafe_get id s lsl (Array.unsafe_get id (s + 1) land 31))))
            | Ast.ShrS ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Array.unsafe_get id s asr (Array.unsafe_get id (s + 1) land 31)))
            | Ast.ShrU ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (Eval_numeric.norm32
                     ((Array.unsafe_get id s land 0xFFFFFFFF)
                      lsr (Array.unsafe_get id (s + 1) land 31))))
            | Ast.DivS | Ast.DivU | Ast.RemS | Ast.RemU | Ast.Rotl | Ast.Rotr ->
              let f = Eval_numeric.ibinop_i32_int op in
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (f (Array.unsafe_get id s) (Array.unsafe_get id (s + 1)))));
           h := !h - 1;
           step 1
         | XI32Rel r ->
           let s = !h - 2 in
           (match r with
            | Ast.Eq ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if Array.unsafe_get id s = Array.unsafe_get id (s + 1) then 1
                   else 0))
            | Ast.Ne ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if Array.unsafe_get id s <> Array.unsafe_get id (s + 1) then 1
                   else 0))
            | Ast.LtS ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if Array.unsafe_get id s < Array.unsafe_get id (s + 1) then 1
                   else 0))
            | Ast.LtU ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if
                     Array.unsafe_get id s land 0xFFFFFFFF
                     < Array.unsafe_get id (s + 1) land 0xFFFFFFFF
                   then 1
                   else 0))
            | Ast.GtS ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if Array.unsafe_get id s > Array.unsafe_get id (s + 1) then 1
                   else 0))
            | Ast.GtU ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if
                     Array.unsafe_get id s land 0xFFFFFFFF
                     > Array.unsafe_get id (s + 1) land 0xFFFFFFFF
                   then 1
                   else 0))
            | Ast.LeS ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if Array.unsafe_get id s <= Array.unsafe_get id (s + 1) then 1
                   else 0))
            | Ast.LeU ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if
                     Array.unsafe_get id s land 0xFFFFFFFF
                     <= Array.unsafe_get id (s + 1) land 0xFFFFFFFF
                   then 1
                   else 0))
            | Ast.GeS ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if Array.unsafe_get id s >= Array.unsafe_get id (s + 1) then 1
                   else 0))
            | Ast.GeU ->
              emit (fun ctx ->
                let id = ctx.id in
                Array.unsafe_set id s
                  (if
                     Array.unsafe_get id s land 0xFFFFFFFF
                     >= Array.unsafe_get id (s + 1) land 0xFFFFFFFF
                   then 1
                   else 0)));
           h := !h - 1;
           step 1
         | XI64Bin op ->
           let f = Eval_numeric.ibinop_i64_fn op in
           let s = !h - 2 in
           emit (fun ctx ->
             let d = ctx.st.data in
             let b = ctx.base + s in
             Array.unsafe_set d b
               (Value.I64
                  (f
                     (Value.as_i64 (Array.unsafe_get d b))
                     (Value.as_i64 (Array.unsafe_get d (b + 1))))));
           h := !h - 1;
           step 1
         | XI64Rel r ->
           let f = Eval_numeric.irelop_i64_fn r in
           let s = !h - 2 in
           emit (fun ctx ->
             let d = ctx.st.data in
             let b = ctx.base + s in
             Array.unsafe_set ctx.id s
               (if
                  f
                    (Value.as_i64 (Array.unsafe_get d b))
                    (Value.as_i64 (Array.unsafe_get d (b + 1)))
                then 1
                else 0));
           h := !h - 1;
           step 1
         | XF64Bin op ->
           let s = !h - 2 in
           (match op with
            | Ast.FAdd ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set fd s
                  (Array.unsafe_get fd s +. Array.unsafe_get fd (s + 1)))
            | Ast.FSub ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set fd s
                  (Array.unsafe_get fd s -. Array.unsafe_get fd (s + 1)))
            | Ast.FMul ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set fd s
                  (Array.unsafe_get fd s *. Array.unsafe_get fd (s + 1)))
            | Ast.FDiv ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set fd s
                  (Array.unsafe_get fd s /. Array.unsafe_get fd (s + 1)))
            | Ast.Min | Ast.Max | Ast.CopySign ->
              let f = Eval_numeric.fbinop_fn op in
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set fd s
                  (f (Array.unsafe_get fd s) (Array.unsafe_get fd (s + 1)))));
           h := !h - 1;
           step 1
         | XF64Rel r ->
           let s = !h - 2 in
           (match r with
            | Ast.FEq ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set ctx.id s
                  (if Array.unsafe_get fd s = Array.unsafe_get fd (s + 1) then 1
                   else 0))
            | Ast.FNe ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set ctx.id s
                  (if Array.unsafe_get fd s <> Array.unsafe_get fd (s + 1) then 1
                   else 0))
            | Ast.FLt ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set ctx.id s
                  (if Array.unsafe_get fd s < Array.unsafe_get fd (s + 1) then 1
                   else 0))
            | Ast.FGt ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set ctx.id s
                  (if Array.unsafe_get fd s > Array.unsafe_get fd (s + 1) then 1
                   else 0))
            | Ast.FLe ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set ctx.id s
                  (if Array.unsafe_get fd s <= Array.unsafe_get fd (s + 1) then 1
                   else 0))
            | Ast.FGe ->
              emit (fun ctx ->
                let fd = ctx.fd in
                Array.unsafe_set ctx.id s
                  (if Array.unsafe_get fd s >= Array.unsafe_get fd (s + 1) then 1
                   else 0)));
           h := !h - 1;
           step 1
         | XF64Un u ->
           let s = !h - 1 in
           (match u with
            | Ast.Abs ->
              emit (fun ctx ->
                Array.unsafe_set ctx.fd s (abs_float (Array.unsafe_get ctx.fd s)))
            | Ast.Neg ->
              emit (fun ctx ->
                Array.unsafe_set ctx.fd s (-.Array.unsafe_get ctx.fd s))
            | Ast.Sqrt ->
              emit (fun ctx ->
                Array.unsafe_set ctx.fd s (sqrt (Array.unsafe_get ctx.fd s)))
            | Ast.Ceil | Ast.Floor | Ast.Trunc | Ast.Nearest ->
              let f = Eval_numeric.funop_impl u in
              emit (fun ctx ->
                Array.unsafe_set ctx.fd s (f (Array.unsafe_get ctx.fd s))));
           step 1
         | XF64ConvertI32S ->
           let s = !h - 1 in
           emit (fun ctx ->
             Array.unsafe_set ctx.fd s (float_of_int (Array.unsafe_get ctx.id s)));
           step 1
         | XI32TruncF64S ->
           let s = !h - 1 in
           emit (fun ctx ->
             Array.unsafe_set ctx.id s
               (Int32.to_int (Value.Cvt.i32_trunc_s (Array.unsafe_get ctx.fd s))));
           step 1
         (* the generic forms: [Interp.decode_instr] leaves only the
            i64 test, f32 comparisons and arithmetic, and the unary
            operators other than f64's here; any other operator makes
            tier 1 decline the body *)
         | XTestGen (Ast.IEqz S64) ->
           let s = !h - 1 in
           emit (fun ctx ->
             Array.unsafe_set ctx.id s
               (if Int64.equal (Value.as_i64 (Array.unsafe_get ctx.st.data (ctx.base + s))) 0L
                then 1
                else 0));
           step 1
         | XCompareGen (Ast.FRel (SF32, _) as op) ->
           let s = !h - 2 in
           emit (fun ctx ->
             let d = ctx.st.data in
             let b = ctx.base + s in
             Array.unsafe_set ctx.id s
               (Int32.to_int
                  (Value.as_i32
                     (Eval_numeric.eval_relop op (Array.unsafe_get d b)
                        (Array.unsafe_get d (b + 1))))));
           h := !h - 1;
           step 1
         | XUnaryGen op ->
           let s = !h - 1 in
           (match op with
            | Ast.IUn (S32, _) ->
              emit (fun ctx ->
                let v =
                  Eval_numeric.eval_unop op
                    (Value.I32 (Int32.of_int (Array.unsafe_get ctx.id s)))
                in
                Array.unsafe_set ctx.id s (Int32.to_int (Value.as_i32 v)))
            | Ast.IUn (S64, _) | Ast.FUn (SF32, _) ->
              emit (fun ctx ->
                let d = ctx.st.data in
                let b = ctx.base + s in
                Array.unsafe_set d b
                  (Eval_numeric.eval_unop op (Array.unsafe_get d b)))
            | Ast.FUn (SF64, _) -> raise Unsupported);
           step 1
         | XBinaryGen (Ast.FBin (SF32, _) as op) ->
           let s = !h - 2 in
           emit (fun ctx ->
             let d = ctx.st.data in
             let b = ctx.base + s in
             Array.unsafe_set d b
               (Eval_numeric.eval_binop op (Array.unsafe_get d b) (Array.unsafe_get d (b + 1))));
           h := !h - 1;
           step 1
         | XTestGen _ | XCompareGen _ | XBinaryGen _ -> raise Unsupported
         | XConvertGen op ->
           let s = !h - 1 in
           let src, dst = cvt_types op in
           let rv = read_val src s
           and wv = write_val dst s in
           emit (fun ctx -> wv ctx (Eval_numeric.eval_cvtop op (rv ctx)));
           step 1
         | XCall fidx ->
           (* box the unboxed arguments, materialise the stack size,
              re-enter the engine, unpack the results; the callee may
              be tier 0, tier 1 or a host function *)
           let callee = inst.inst_funcs.(fidx) in
           let ft = func_type_of callee in
           let np = List.length ft.params
           and nr = List.length ft.results in
           let hh = !h in
           let abase = hh - np in
           if abase < 0 then raise Unsupported;
           let invoke : ectx -> unit =
             match callee with
             | Wasm_func (j, ci) ->
               fun ctx ->
                 ctx.st.size <- ctx.base + hh;
                 call_wasm ci j ctx.st
             | Host_func hf ->
               fun ctx ->
                 ctx.st.size <- ctx.base + hh;
                 call_host inst hf ctx.st
           in
           emit (staged_call ~abase ft invoke);
           h := hh - np + nr;
           step 1
         | XCallIndirect tidx ->
           let expected = inst.inst_types.(tidx) in
           let np = List.length expected.params
           and nr = List.length expected.results in
           let hh = !h in
           let abase = hh - 1 - np in
           if abase < 0 then raise Unsupported;
           let si = hh - 1 in
           (match inst.inst_table with
            | None -> emit (fun _ -> raise (Value.Trap "no table"))
            | Some table ->
              let invoke ctx =
                let st = ctx.st in
                let i = Array.unsafe_get ctx.id si land 0xFFFFFFFF in
                st.size <- ctx.base + si;
                let elems = table.t_elems in
                if i >= Array.length elems then
                  raise (Value.Trap "undefined element");
                match Array.unsafe_get elems i with
                | None -> raise (Value.Trap "uninitialized element")
                | Some callee ->
                  if not (equal_func_type (func_type_of callee) expected) then
                    raise (Value.Trap "indirect call type mismatch");
                  (match callee with
                   | Wasm_func (j, ci) -> call_wasm ci j st
                   | Host_func hf -> call_host inst hf st)
              in
              emit (staged_call ~abase expected invoke));
           h := hh - 1 - np + nr;
           step 1
         (* terminators: every control transfer ends the block *)
         | XUnreachable ->
           finish (fun _ -> raise (Value.Trap "unreachable executed"))
         | XIf (else_target, _) | XIfElse (else_target, _, _) ->
           (* a valid [if] without [else] has no results: a false
              condition skips to its end *)
           let s = !h - 1 in
           let then_edge = jump_to ~cur (p + 1)
           and else_edge = jump_to ~cur else_target in
           finish (fun ctx ->
             if Array.unsafe_get ctx.id s = 0 then begin
               ctx.charged <- 0;
               else_edge ctx
             end
             else then_edge ctx)
         | XElse end_target ->
           let edge = jump_to ~cur end_target in
           finish (fun ctx ->
             ctx.charged <- 0;
             edge ctx)
         | XBr k -> finish (branch_edge ~cur ~from_h:!h frames_at.(p) k)
         | XBrIf k ->
           let s = !h - 1 in
           let taken = branch_edge ~cur ~from_h:(!h - 1) frames_at.(p) k in
           let next = jump_to ~cur (p + 1) in
           finish (fun ctx ->
             if Array.unsafe_get ctx.id s = 0 then next ctx else taken ctx)
         | XBrTable tbl ->
           let s = !h - 1 in
           let from_h = !h - 1 in
           let edges =
             Array.map (fun k -> branch_edge ~cur ~from_h frames_at.(p) k) tbl
           in
           let last = Array.length tbl - 1 in
           finish (fun ctx ->
             let i = Array.unsafe_get ctx.id s land 0xFFFFFFFF in
             (if i < last then Array.unsafe_get edges i
              else Array.unsafe_get edges last)
               ctx)
         | XReturn -> finish (ret_edge ~from_h:!h)));
        if probed && Option.is_none !term then events sc ~h:!h types_at.(!last + 1) post.(!last)
      done;
      flush sc ~h:!h;
      let term_closure =
        match !term with
        | Some t -> t
        | None ->
          (* fall through to the next block (a label target), keeping
             the charge mark — tier 0 does not recharge here either *)
          if eb = n then end_edge ~from_h:!h else jump_to ~cur eb
      in
      let body_cl = seq (List.rev sc.ops) term_closure in
      (* the charge prologue replicates tier 0's batched fuel/step
         accounting bit for bit: same condition, same amounts, same
         profiler run credit *)
      let len = run_len.(sb) in
      fun ctx ->
        if sb >= ctx.charged then begin
          if inst.fuel <= 0 then raise (Exhaustion "out of fuel");
          (match inst.inst_gov with None -> () | Some g -> Governor.check_batch g);
          inst.steps <- inst.steps + len;
          inst.fuel <- inst.fuel - len;
          ctx.charged <- sb + len;
          (match inst.inst_prof with
           | None -> ()
           | Some pr -> Obs.Profile.bump_run pr ~fid ~body_len:n ~pc:sb ~len);
          match inst.inst_triggers with
          | [] -> ()
          | _ -> fire_triggers inst
        end;
        body_cl ctx
    end
  in
  (* increasing order: back-edge targets are final when referenced *)
  for b = 0 to !nblocks - 1 do
    cells.(b) := compile_block b
  done;
  let entry = events_then ~h:0 [] enter !(cells.(0)) in
  if !nbound + !ngeneric > 0 then begin
    Obs.Metrics.inc ~by:(Float.of_int !nbound) (hook_sites_counter "bound");
    Obs.Metrics.inc ~by:(Float.of_int !ngeneric) (hook_sites_counter "generic")
  end;
  if !ngroups > 0 then begin
    Obs.Metrics.inc ~by:(Float.of_int !ngroups) (count_groups_counter ());
    Obs.Metrics.inc ~by:(Float.of_int !ncounted) (counted_sites_counter ())
  end;
  if !nfused > 0 then Obs.Metrics.inc ~by:(Float.of_int !nfused) (fused_counter ());
  if !nelided > 0 then Obs.Metrics.inc ~by:(Float.of_int !nelided) (elided_counter ());
  let nparams = code.c_nparams in
  let has_il = Array.exists (fun t -> t = I32T) ltypes in
  let has_fl = Array.exists (fun t -> t = F64T) ltypes in
  let i32_params = ref []
  and f64_params = ref [] in
  for j = nparams - 1 downto 0 do
    match ltypes.(j) with
    | I32T -> i32_params := j :: !i32_params
    | F64T -> f64_params := j :: !f64_params
    | I64T | F32T -> ()
  done;
  let i32_params = Array.of_list !i32_params in
  let f64_params = Array.of_list !f64_params in
  fun _inst locals ->
    let st = inst.inst_stack in
    stack_reserve st (st.size + max_h);
    (* fresh typed scratch per activation; declared locals default to
       zero, matching [c_local_defaults] *)
    let il = if has_il then Array.make nlocals 0 else empty_ints in
    let fl = if has_fl then Array.make nlocals 0.0 else empty_floats in
    Array.iter
      (fun j ->
         Array.unsafe_set il j
           (Int32.to_int (Value.as_i32 (Array.unsafe_get locals j))))
      i32_params;
    Array.iter
      (fun j -> Array.unsafe_set fl j (Value.as_f64 (Array.unsafe_get locals j)))
      f64_params;
    let id = if max_h = 0 then empty_ints else Array.make max_h 0 in
    let fd = if max_h = 0 then empty_floats else Array.make max_h 0.0 in
    let ctx = { st; locals; il; fl; id; fd; base = st.size; charged = 0 } in
    entry ctx

(** {1 Public API} *)

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

(** Tier threshold requested via the [WASABI_TIER] environment
    variable: unset / ["0"] / ["off"] / ["none"] disable tier-up,
    ["on"] / ["default"] select {!default_threshold}, a positive
    integer is used as the threshold directly. *)
let env_threshold () =
  match Sys.getenv_opt "WASABI_TIER" with
  | None -> None
  | Some s ->
    (match String.lowercase_ascii (String.trim s) with
     | "" | "0" | "off" | "none" -> None
     | "on" | "default" -> Some default_threshold
     | s ->
       (match int_of_string_opt s with
        | Some k when k > 0 -> Some k
        | _ -> None))

(** Apply the environment policy: enable tier-up iff [WASABI_TIER]
    requests it. *)
let enable_from_env inst =
  match env_threshold () with
  | Some threshold -> enable ~threshold inst
  | None -> ()
