(** Type-directed generation of random-but-valid Wasm modules.

    The generator is a grammar over typed expressions and statements:
    [expr ctx depth ty] emits an instruction sequence that pushes exactly
    one value of type [ty], [stmt ctx depth] one with zero net stack
    effect. Validity holds by construction — every generated module must
    pass [Validate.validate_module]; a rejection is a generator bug and
    the harness reports it as a violation.

    Deliberately included fault-injection surface: trapping operators
    (div/rem by a zero denominator, overflowing float→int truncation),
    out-of-bounds memory accesses (addresses are only {e mostly} masked
    into range), [call_indirect] through partially-initialised or
    out-of-range table slots, and guarded [unreachable]. All of these
    are deterministic, so the differential oracle compares the trap
    itself.

    Termination is structural: loops are bounded counter idioms, the
    call graph is acyclic ([run] → helpers → earlier helpers → leaves),
    and recursion is absent — so any generated program terminates well
    inside the harness's base fuel unless the generator has a bug (which
    the differential oracle's skip-statistics would expose).

    Helpers take 0–3 parameters of any value type and return one value
    of any type or none, so calls between compiled bodies carry every
    value type; [run] ends by calling each helper once and folding its
    result into the value it returns. *)

open Wasm
open Types
open Ast
module B = Builder

(** What the oracles need to know about a generated module. *)
type info = {
  module_ : Ast.module_;
  has_memory : bool;
  n_globals : int;
}

(** A callable helper function: its index and signature. *)
type helper = {
  h_index : int;
  h_params : value_type list;
  h_result : value_type option;
}

type ctx = {
  rng : Rng.t;
  locals : value_type array;  (** params @ declared locals *)
  scratch : int array;  (** reserved i32 loop counters, by loop depth *)
  globals : (value_type * bool) array;  (** (type, mutable) *)
  helpers : helper list;  (** the helpers this function may call *)
  has_memory : bool;
  has_table : bool;
  leaf_type : int;  (** type index of [] -> [i32], the call_indirect type *)
  result : value_type option;  (** result type of the function being generated *)
  mutable budget : int;  (** remaining instruction allowance *)
}

let max_expr_depth = 4
let max_stmt_depth = 3
let max_loop_depth = 3

let spend ctx n = ctx.budget <- ctx.budget - n

let locals_of_type ctx ty =
  let out = ref [] in
  Array.iteri (fun i t -> if t = ty then out := i :: !out) ctx.locals;
  !out

let globals_of_type ctx ty ~need_mutable =
  let out = ref [] in
  Array.iteri
    (fun i (t, m) -> if t = ty && ((not need_mutable) || m) then out := i :: !out)
    ctx.globals;
  !out

(* finite float pools: no NaN constants, so [decode (encode m) = m] can
   use structural equality *)
let f64_pool = [| 0.0; 1.0; -1.0; 0.5; -2.5; 3.1415926535; 1e10; -1e10; 1e-3; 4096.0; -0.0 |]
let f32_pool =
  [| Int32.bits_of_float 0.0; Int32.bits_of_float 1.0; Int32.bits_of_float (-1.5);
     Int32.bits_of_float 0.25; Int32.bits_of_float 100.0; Int32.bits_of_float (-3.0) |]

let const ctx ty =
  match ty with
  | I32T -> Const (Value.I32 (Rng.i32_const ctx.rng))
  | I64T -> Const (Value.I64 (Rng.i64_const ctx.rng))
  | F32T -> Const (Value.F32 (Rng.choose ctx.rng f32_pool))
  | F64T -> Const (Value.F64 (Rng.choose ctx.rng f64_pool))

let isize_of = function I32T -> S32 | I64T -> S64 | _ -> assert false
let fsize_of = function F32T -> SF32 | F64T -> SF64 | _ -> assert false

let ibinops = [| Add; Sub; Mul; And; Or; Xor; Shl; ShrS; ShrU; Rotl; Rotr; DivS; DivU; RemS; RemU |]
let fbinops = [| FAdd; FSub; FMul; FDiv; Min; Max; CopySign |]
let irelops = [| Eq; Ne; LtS; LtU; GtS; GtU; LeS; LeU; GeS; GeU |]
let frelops = [| FEq; FNe; FLt; FGt; FLe; FGe |]
let funops = [| Abs; Neg; Sqrt; Ceil; Floor; Trunc; Nearest |]

let any_type rng = Rng.choose rng [| I32T; I64T; F32T; F64T |]

(** A memory address expression: usually masked into the first page so
    most accesses land in bounds, sometimes left wild for OOB traps. *)
let rec addr ctx depth =
  let base = expr ctx depth I32T in
  if Rng.chance ctx.rng 85 then
    base @ [ Const (Value.I32 0xFFF0l); Binary (IBin (S32, And)) ]
  else base

(** Emit one value of type [ty]. *)
and expr ctx depth ty : instr list =
  let rng = ctx.rng in
  let leaf () =
    match locals_of_type ctx ty with
    | ls when ls <> [] && Rng.chance rng 55 ->
      spend ctx 1;
      [ LocalGet (Rng.choose_list rng ls) ]
    | _ ->
      (match globals_of_type ctx ty ~need_mutable:false with
       | gs when gs <> [] && Rng.chance rng 30 ->
         spend ctx 1;
         [ GlobalGet (Rng.choose_list rng gs) ]
       | _ ->
         spend ctx 1;
         [ const ctx ty ])
  in
  if depth >= max_expr_depth || ctx.budget <= 0 then leaf ()
  else begin
    spend ctx 1;
    let d = depth + 1 in
    match List.filter (fun h -> h.h_result = Some ty) ctx.helpers with
    | hs when hs <> [] && Rng.chance rng 5 -> call_helper ctx d (Rng.choose_list rng hs)
    | _ ->
    match ty with
    | I32T -> (
      match Rng.int rng 100 with
      | n when n < 22 -> leaf ()
      | n when n < 42 ->
        expr ctx d I32T @ expr ctx d I32T @ [ Binary (IBin (S32, Rng.choose rng ibinops)) ]
      | n when n < 48 ->
        expr ctx d I32T @ [ Unary (IUn (S32, Rng.choose rng [| Clz; Ctz; Popcnt; Ext8S; Ext16S |])) ]
      | n when n < 56 ->
        let cty = any_type rng in
        (match cty with
         | I32T | I64T ->
           let sz = isize_of cty in
           expr ctx d cty @ expr ctx d cty @ [ Compare (IRel (sz, Rng.choose rng irelops)) ]
         | F32T | F64T ->
           let sz = fsize_of cty in
           expr ctx d cty @ expr ctx d cty @ [ Compare (FRel (sz, Rng.choose rng frelops)) ])
      | n when n < 61 ->
        let sz = if Rng.bool rng then S32 else S64 in
        expr ctx d (num_type_of_isize sz) @ [ Test (IEqz sz) ]
      | n when n < 66 -> expr ctx d I64T @ [ Convert I32WrapI64 ]
      | n when n < 70 ->
        let cv = Rng.choose rng [| I32TruncSatF64S; I32TruncSatF64U; I32TruncF64S |] in
        expr ctx d F64T @ [ Convert cv ]
      | n when n < 76 && ctx.has_memory ->
        let pack =
          Rng.choose rng
            [| None; Some (Pack8, ZX); Some (Pack8, SX); Some (Pack16, ZX); Some (Pack16, SX) |]
        in
        let align = match pack with None -> 2 | Some (Pack16, _) -> 1 | _ -> 0 in
        addr ctx d @ [ Load { lty = I32T; lalign = align; loffset = Rng.int rng 16; lpack = pack } ]
      | n when n < 84 && ctx.has_table ->
        (* the index is masked loosely: out-of-range and uninitialised
           slots are reachable on purpose *)
        expr ctx d I32T @ [ Const (Value.I32 7l); Binary (IBin (S32, And)); CallIndirect ctx.leaf_type ]
      | n when n < 90 ->
        expr ctx d ty @ expr ctx d ty @ expr ctx d I32T @ [ Select ]
      | n when n < 96 ->
        expr ctx d I32T
        @ [ If (Some ty) ] @ expr ctx d ty @ [ Else ] @ expr ctx d ty @ [ End ]
      | n when n < 98 && ctx.has_memory -> [ MemorySize ]
      | _ -> [ Block (Some ty) ] @ expr ctx d ty @ [ End ])
    | I64T -> (
      match Rng.int rng 100 with
      | n when n < 30 -> leaf ()
      | n when n < 55 ->
        expr ctx d I64T @ expr ctx d I64T @ [ Binary (IBin (S64, Rng.choose rng ibinops)) ]
      | n when n < 63 ->
        expr ctx d I64T
        @ [ Unary (IUn (S64, Rng.choose rng [| Clz; Ctz; Popcnt; Ext8S; Ext16S; Ext32S |])) ]
      | n when n < 75 ->
        let cv = if Rng.bool rng then I64ExtendI32S else I64ExtendI32U in
        expr ctx d I32T @ [ Convert cv ]
      | n when n < 80 ->
        expr ctx d F64T @ [ Convert (if Rng.bool rng then I64TruncSatF64S else I64TruncSatF64U) ]
      | n when n < 84 -> expr ctx d F64T @ [ Convert I64ReinterpretF64 ]
      | n when n < 90 && ctx.has_memory ->
        addr ctx d @ [ Load { lty = I64T; lalign = 3; loffset = Rng.int rng 16; lpack = None } ]
      | n when n < 96 ->
        expr ctx d ty @ expr ctx d ty @ expr ctx d I32T @ [ Select ]
      | _ ->
        expr ctx d I32T
        @ [ If (Some ty) ] @ expr ctx d ty @ [ Else ] @ expr ctx d ty @ [ End ])
    | F64T -> (
      match Rng.int rng 100 with
      | n when n < 30 -> leaf ()
      | n when n < 55 ->
        expr ctx d F64T @ expr ctx d F64T @ [ Binary (FBin (SF64, Rng.choose rng fbinops)) ]
      | n when n < 65 -> expr ctx d F64T @ [ Unary (FUn (SF64, Rng.choose rng funops)) ]
      | n when n < 78 ->
        let cv = Rng.choose rng [| F64ConvertI32S; F64ConvertI32U |] in
        expr ctx d I32T @ [ Convert cv ]
      | n when n < 84 -> expr ctx d F32T @ [ Convert F64PromoteF32 ]
      | n when n < 88 -> expr ctx d I64T @ [ Convert F64ReinterpretI64 ]
      | n when n < 94 && ctx.has_memory ->
        addr ctx d @ [ Load { lty = F64T; lalign = 3; loffset = Rng.int rng 16; lpack = None } ]
      | _ ->
        expr ctx d I32T
        @ [ If (Some ty) ] @ expr ctx d ty @ [ Else ] @ expr ctx d ty @ [ End ])
    | F32T -> (
      match Rng.int rng 100 with
      | n when n < 35 -> leaf ()
      | n when n < 60 ->
        expr ctx d F32T @ expr ctx d F32T @ [ Binary (FBin (SF32, Rng.choose rng fbinops)) ]
      | n when n < 70 -> expr ctx d F32T @ [ Unary (FUn (SF32, Rng.choose rng funops)) ]
      | n when n < 82 ->
        let cv = Rng.choose rng [| F32ConvertI32S; F32ConvertI32U |] in
        expr ctx d I32T @ [ Convert cv ]
      | n when n < 90 -> expr ctx d F64T @ [ Convert F32DemoteF64 ]
      | _ -> expr ctx d I32T @ [ Convert F32ReinterpretI32 ])
  end

(** A call to helper [h], its arguments computed in order. *)
and call_helper ctx depth h =
  List.concat_map (fun ty -> expr ctx depth ty) h.h_params @ [ Call h.h_index ]

(** A call to a helper [h] returning nothing whose first argument is a
    local [x] of type i64 or f32, with [x] re-loaded right after it, into
    the operand slot that argument took. Those types live in boxed slots
    of the shared stack, which the callee's frame reuses, so a compiler
    that kept the slot's value across the call would read what the
    callee left there. The re-load is compared with a copy of [x] pushed
    before the call (bitwise for f32), and a mismatch traps. *)
and reload_after_call ctx h x =
  let ty = ctx.locals.(x) in
  let bits, ne =
    if ty = F32T then ([ Convert I32ReinterpretF32 ], Compare (IRel (S32, Ne)))
    else ([], Compare (IRel (S64, Ne)))
  in
  spend ctx 6;
  (LocalGet x :: bits) @ [ LocalGet x ]
  @ List.concat_map (fun ty -> expr ctx 1 ty) (List.tl h.h_params)
  @ [ Call h.h_index; LocalGet x ] @ bits @ [ ne; If None; Unreachable; End ]

(** The helpers [reload_after_call] can call, each with a local it can
    pass. *)
and reloadable ctx =
  List.filter_map
    (fun h ->
       match h.h_params, h.h_result with
       | ((I64T | F32T) as ty) :: _, None -> (
         match locals_of_type ctx ty with [] -> None | ls -> Some (h, ls))
       | _ -> None)
    ctx.helpers

(** Emit a statement: net stack effect zero. [loop_depth] indexes the
    reserved counter locals so nested bounded loops don't clobber each
    other. *)
let rec stmt ctx depth loop_depth : instr list =
  let rng = ctx.rng in
  if ctx.budget <= 0 then [ Nop ]
  else begin
    spend ctx 1;
    let d = depth + 1 in
    match Rng.int rng 100 with
    | n when n < 4 && ctx.helpers <> [] ->
      let h = Rng.choose_list rng ctx.helpers in
      call_helper ctx 1 h @ (if Option.is_some h.h_result then [ Drop ] else [])
    | n when n < 8 -> (
      match reloadable ctx with
      | [] -> [ Nop ]
      | hs ->
        let h, ls = Rng.choose_list rng hs in
        reload_after_call ctx h (Rng.choose_list rng ls))
    | n when n < 22 ->
      let ty = any_type rng in
      expr ctx 1 ty @ [ Drop ]
    | n when n < 40 ->
      let ty = any_type rng in
      (match locals_of_type ctx ty with
       | [] -> expr ctx 1 ty @ [ Drop ]
       | ls ->
         let i = Rng.choose_list rng ls in
         if Rng.bool rng then expr ctx 1 ty @ [ LocalSet i ]
         else expr ctx 1 ty @ [ LocalTee i; Drop ])
    | n when n < 50 ->
      let ty = any_type rng in
      (match globals_of_type ctx ty ~need_mutable:true with
       | [] -> expr ctx 1 ty @ [ Drop ]
       | gs -> expr ctx 1 ty @ [ GlobalSet (Rng.choose_list rng gs) ])
    | n when n < 62 && ctx.has_memory ->
      let sty = any_type rng in
      let pack, full_align =
        match sty with
        | I32T -> (Rng.choose rng [| None; Some Pack8; Some Pack16 |], 2)
        | I64T -> (Rng.choose rng [| None; Some Pack8; Some Pack16; Some Pack32 |], 3)
        | F32T -> (None, 2)
        | F64T -> (None, 3)
      in
      let salign =
        match pack with Some Pack8 -> 0 | Some Pack16 -> 1 | Some Pack32 -> 2 | None -> full_align
      in
      addr ctx 1 @ expr ctx 1 sty
      @ [ Store { sty; salign; soffset = Rng.int rng 16; spack = pack } ]
    | n when n < 70 && depth < max_stmt_depth ->
      expr ctx 1 I32T
      @ [ If None ] @ stmts ctx d loop_depth
      @ (if Rng.bool rng then [ Else ] @ stmts ctx d loop_depth else [])
      @ [ End ]
    | n when n < 78 && depth < max_stmt_depth ->
      (* block with an early conditional exit *)
      [ Block None ]
      @ stmts ctx d loop_depth
      @ expr ctx 1 I32T @ [ BrIf 0 ]
      @ stmts ctx d loop_depth
      @ [ End ]
    | n when n < 88 && depth < max_stmt_depth && loop_depth < max_loop_depth ->
      (* bounded counter loop: const n; local.set c; loop ... br_if 0 *)
      let c = ctx.scratch.(loop_depth) in
      let iters = Int32.of_int (Rng.range rng 1 6) in
      [ Const (Value.I32 iters); LocalSet c; Loop None ]
      @ stmts ctx d (loop_depth + 1)
      @ [ LocalGet c; Const (Value.I32 1l); Binary (IBin (S32, Sub)); LocalTee c; BrIf 0; End ]
    | n when n < 93 && depth < max_stmt_depth ->
      (* br_table dispatch into three nested blocks *)
      [ Block None; Block None; Block None ]
      @ expr ctx 1 I32T
      @ [ BrTable ([ 0; 1 ], 2); End ]
      @ stmts ctx d loop_depth @ [ End ]
      @ stmts ctx d loop_depth @ [ End ]
    | n when n < 95 && ctx.has_memory ->
      [ Const (Value.I32 (Int32.of_int (Rng.int rng 3))); MemoryGrow; Drop ]
    | n when n < 97 ->
      (* guarded fault injection *)
      expr ctx 1 I32T @ [ If None; Unreachable; End ]
    | n when n < 99 ->
      (* early return (the code after it is dead but must still validate) *)
      (match ctx.result with Some ty -> expr ctx 1 ty | None -> []) @ [ Return ]
    | _ -> [ Nop ]
  end

and stmts ctx depth loop_depth =
  let n = Rng.range ctx.rng 0 3 in
  List.concat (List.init n (fun _ -> stmt ctx depth loop_depth))

let gen_locals rng =
  List.init (Rng.int rng 4) (fun _ -> any_type rng)

(** Build a function body: a reserved block of i32 scratch locals (loop
    counters) is appended after the random ones. *)
let gen_body rng ~params ~result ~globals ~helpers ~has_memory ~has_table ~leaf_type ~budget =
  let extra = gen_locals rng in
  let scratch_base = List.length params + List.length extra in
  let locals = extra @ [ I32T; I32T; I32T ] in
  let ctx =
    {
      rng;
      locals = Array.of_list (params @ locals);
      scratch = Array.init max_loop_depth (fun i -> scratch_base + i);
      globals;
      helpers;
      has_memory;
      has_table;
      leaf_type;
      result;
      budget;
    }
  in
  let body = stmts ctx 0 0 @ (match result with Some ty -> expr ctx 0 ty | None -> []) in
  (locals, body, ctx)

(** Fold a value of type [ty] into an [i32] that depends on all its
    bits. *)
let fold_to_i32 ty =
  (* an odd multiplier carries every bit into the high half *)
  let fold64 =
    [ Const (Value.I64 0x9E3779B97F4A7C15L); Binary (IBin (S64, Mul)); Const (Value.I64 32L);
      Binary (IBin (S64, ShrU)); Convert I32WrapI64 ]
  in
  match ty with
  | I32T -> []
  | F32T -> [ Convert I32ReinterpretF32 ]
  | I64T -> fold64
  | F64T -> Convert I64ReinterpretF64 :: fold64

(** Generate one random valid module. Layout: an optional memory
    (exported ["mem"]), 0–3 mutable exported globals (["g0"], ...), an
    optional table of leaf functions (the [call_indirect] targets), 0–3
    helper functions of random signatures, and an exported ["run"]
    [] -> [i32] entry point. The call graph is run → helpers → earlier
    helpers → leaves, so there is no recursion. *)
let generate rng : info =
  let bld = B.create () in
  let has_memory = Rng.chance rng 80 in
  if has_memory then B.add_memory bld ~min_pages:1 ~max_pages:(Some 4);
  let n_globals = Rng.int rng 4 in
  let globals =
    Array.init n_globals (fun _ ->
      let ty = any_type rng in
      (ty, true))
  in
  Array.iteri
    (fun i (ty, _) ->
       let init =
         match ty with
         | I32T -> Value.I32 (Rng.i32_const rng)
         | I64T -> Value.I64 (Rng.i64_const rng)
         | F32T -> Value.F32 (Rng.choose rng f32_pool)
         | F64T -> Value.F64 (Rng.choose rng f64_pool)
       in
       let g = B.add_global bld ~ty ~mutable_:true ~init in
       B.export_global bld ~name:(Printf.sprintf "g%d" i) g)
    globals;
  let leaf_type = B.add_type bld { params = []; results = [ I32T ] } in
  (* leaf functions: bodies with no calls at all *)
  let n_leaves = Rng.int rng 4 in
  let leaves =
    List.init n_leaves (fun _ ->
      let locals, body, _ =
        gen_body rng ~params:[] ~result:(Some I32T) ~globals ~helpers:[] ~has_memory
          ~has_table:false ~leaf_type ~budget:(Rng.range rng 5 25)
      in
      B.add_func bld ~params:[] ~results:[ I32T ] ~locals ~body)
  in
  let has_table = leaves <> [] in
  if has_table then begin
    B.add_table bld ~min_size:(n_leaves + Rng.int rng 3) ~max_size:(Some 16);
    B.add_elem bld ~offset:0 ~funcs:leaves
  end;
  (* helper functions: may use the table and the helpers before them *)
  let n_helpers = Rng.int rng 4 in
  let helpers =
    List.fold_left
      (fun earlier _ ->
         let params = List.init (Rng.int rng 4) (fun _ -> any_type rng) in
         let result = if Rng.chance rng 25 then None else Some (any_type rng) in
         let locals, body, _ =
           gen_body rng ~params ~result ~globals ~helpers:earlier ~has_memory ~has_table
             ~leaf_type ~budget:(Rng.range rng 10 50)
         in
         let results = Option.to_list result in
         { h_index = B.add_func bld ~params ~results ~locals ~body; h_params = params;
           h_result = result }
         :: earlier)
      [] (List.init n_helpers Fun.id)
  in
  let locals, body, ctx =
    gen_body rng ~params:[] ~result:(Some I32T) ~globals ~helpers ~has_memory ~has_table
      ~leaf_type ~budget:(Rng.range rng 30 150)
  in
  (* each helper's result joins run's value, so every oracle comparing
     run's outcome compares it too *)
  let fold h =
    call_helper ctx 1 h
    @ match h.h_result with
      | Some ty -> fold_to_i32 ty @ [ Binary (IBin (S32, Xor)) ]
      | None -> []
  in
  let body = body @ List.concat_map fold (List.rev helpers) in
  let run = B.add_func bld ~params:[] ~results:[ I32T ] ~locals ~body in
  B.export_func bld ~name:"run" run;
  if has_memory then begin
    B.export_memory bld ~name:"mem";
    if Rng.chance rng 40 then
      B.add_data bld ~offset:(Rng.int rng 256)
        ~bytes:(String.init (Rng.range rng 1 32) (fun _ -> Char.chr (Rng.int rng 256)))
  end;
  { module_ = B.build bld; has_memory; n_globals }
