(** The hook-event plan: which low-level hook fires at each instruction
    of a function, when, and with which arguments (paper, Section 2.4 and
    Table 3). It is computed once per function by one walk with the
    validator's {!Wasm.Validate.Stack_tracker} and an abstract control
    stack (paper, Figure 6), and is the single definition of the event
    contract. Both backends lower it: {!Instrument} to wasm hook calls,
    [Runtime.Probe] to engine-probe site closures.

    The walk resolves relative branch labels to absolute instruction
    locations, lists the [end] events of every block a branch leaves,
    extracts [br_table] entries for runtime selection, skips sites whose
    stack types are polymorphic (statically-unreachable code) and, given
    abstract-interpretation facts ([~fold]), discharges sites proven dead
    or turns arguments proven constant into immediates. *)

open Wasm
open Wasm.Types
open Wasm.Ast
open Hook
module Tracker = Validate.Stack_tracker

(* the types are documented in plan.mli *)
type arg = Imm of Value.t | Operand of int | Result | Local of int
type timing = Before | After | Body_head | Taken
type event = { spec : Hook.spec; at : int; timing : timing; args : arg list }

type t = {
  br_tables : Metadata.br_table_info list;
  dead_skipped : Location.t list;
  folded : Metadata.fold_site list;
}

(* Facts {e before} [at] describe the operands an instruction consumes;
   facts before [at + 1] describe the value it pushes (joins at block
   boundaries only widen, so a singleton there is still exact). *)
let static_fold_args fx ~func ~at (ins : instr) : Value.t list option =
  let v depth = Static.Interval.singleton (Static.Absint.value_at fx ~func ~pc:at ~depth) in
  let next depth =
    Static.Interval.singleton (Static.Absint.value_at fx ~func ~pc:(at + 1) ~depth)
  in
  match ins with
  | If _ | BrIf _ | BrTable _ | Drop | LocalSet _ | LocalTee _ | GlobalSet _ | Return ->
    (* the consumed operand: top of stack before the instruction *)
    (match v 0 with Some x -> Some [ x ] | None -> None)
  | LocalGet _ | GlobalGet _ ->
    (* the produced value: top of stack after the instruction *)
    (match next 0 with Some x -> Some [ x ] | None -> None)
  | Test _ | Unary _ | Convert _ ->
    (match v 0, next 0 with Some a, Some r -> Some [ a; r ] | _ -> None)
  | Compare _ | Binary _ ->
    (match v 1, v 0, next 0 with
     | Some a, Some b, Some r -> Some [ a; b; r ]
     | _ -> None)
  | _ -> None

(** Abstract control stack entry (paper, Figure 6). *)
type ctrl_entry = {
  kind : Hook.block_kind;
  cbegin : int;  (** instruction index of the block begin; -1 for the function *)
  cend : int;  (** instruction index of the matching [End]; body length for the function *)
}

type walk = {
  func : int;
  groups : Hook.group list;  (** the enabled groups, for a cheap [memq] *)
  tracker : Tracker.t;
  facts : Static.Absint.t option;
  mutable ctrl : ctrl_entry list;
  mutable br_tables : Metadata.br_table_info list;
  mutable dead : Location.t list;  (** reversed *)
  mutable fold_log : Metadata.fold_site list;  (** reversed *)
}

let enabled w g = List.memq g w.groups
let loc w at = Location.make ~func:w.func ~instr:at
(* small immediates (labels, indices, offsets) are shared *)
let small_imms = Array.init 256 (fun k -> Imm (Value.i32_of_int k))
let imm k = if k >= 0 && k < 256 then small_imms.(k) else Imm (Value.i32_of_int k)
let ev ?(timing = Before) ~at spec args = { spec; at; timing; args }

(** Instruction index executed next if a branch to [e] is taken. *)
let target_instr e =
  match e.kind with
  | Bloop -> e.cbegin + 1
  | Bfunction -> e.cend  (* the implicit end of the function *)
  | Bblock | Bif | Belse -> e.cend + 1

let resolve_target w l : Metadata.target =
  match List.nth_opt w.ctrl l with
  | Some e ->
    { Metadata.label = l; target_loc = Location.make ~func:w.func ~instr:(target_instr e) }
  | None -> invalid_arg (Printf.sprintf "branch label %d exceeds control stack" l)

(** Blocks exited by a taken branch with label [l]: control-stack entries
    0..l, innermost first (paper, Section 2.4.5). *)
let ended_blocks w l : Metadata.ended_block list =
  List.filteri (fun i _ -> i <= l) w.ctrl
  |> List.map (fun e ->
    { Metadata.eb_kind = e.kind;
      eb_end_loc = Location.make ~func:w.func ~instr:e.cend;
      eb_begin_instr = e.cbegin })

let end_events ?timing (ended : Metadata.ended_block list) =
  List.map
    (fun (eb : Metadata.ended_block) ->
       ev ?timing ~at:eb.eb_end_loc.Location.instr (S_end eb.eb_kind) [ imm eb.eb_begin_instr ])
    ended

let known w d =
  match Tracker.peek w.tracker d with Validate.Known t -> Some t | Validate.Unknown -> None

(** Constant hook arguments for this site, when folding is on and the
    facts pin every runtime value argument; recorded as folded. *)
let fold w ~at ins =
  match w.facts with
  | None -> None
  | Some fx ->
    let vs = static_fold_args fx ~func:w.func ~at ins in
    Option.iter (fun vs -> w.fold_log <- F_args (loc w at, vs) :: w.fold_log) vs;
    vs

(** A branch/return in statically-unreachable code: its operand types are
    polymorphic, so no hook arguments can be read. The site is recorded
    so the lint can surface it instead of a silent fallthrough. *)
let skip_dead w ~at =
  w.dead <- loc w at :: w.dead;
  []

let call_events ~at (ft : func_type) ~callee ~indirect =
  let np = List.length ft.params in
  (* the table index, when indirect, sits above the arguments *)
  let base = if indirect then np else np - 1 in
  let post =
    match ft.results with
    | [] -> ev ~timing:After ~at (S_call_post []) []
    | [ rt ] -> ev ~timing:After ~at (S_call_post [ rt ]) [ Result ]
    | _ -> invalid_arg "multiple results not supported"
  in
  [ ev ~at (S_call_pre (ft.params, indirect))
      (callee :: List.init np (fun j -> Operand (base - j)));
    post ]

(** Would any enabled group fire at this instruction? Structured control
    instructions are excluded: they also maintain the control stack, so
    they are always planned and never dead-folded. *)
let structured = function Block _ | Loop _ | If _ | Else | End -> true | _ -> false

let would_hook w = function
  | Block _ | Loop _ | If _ | Else | End -> false
  | Nop -> enabled w G_nop
  | Unreachable -> enabled w G_unreachable
  | Br _ -> enabled w G_br || enabled w G_end
  | BrIf _ -> enabled w G_br_if || enabled w G_end
  | BrTable _ -> enabled w G_br_table || enabled w G_end
  | Return -> enabled w G_return || enabled w G_end
  | Call _ | CallIndirect _ -> enabled w G_call
  | Drop -> enabled w G_drop
  | Select -> enabled w G_select
  | LocalGet _ | LocalSet _ | LocalTee _ -> enabled w G_local
  | GlobalGet _ | GlobalSet _ -> enabled w G_global
  | Load _ -> enabled w G_load
  | Store _ -> enabled w G_store
  | MemorySize -> enabled w G_memory_size
  | MemoryGrow -> enabled w G_memory_grow
  | Const _ -> enabled w G_const
  | Test _ | Unary _ | Convert _ -> enabled w G_unary
  | Compare _ | Binary _ -> enabled w G_binary

(* the helpers of [live_events] are not local closures: planning must
   not allocate per instruction beyond the events themselves *)
let one w ~at ?timing g spec args = if enabled w g then [ ev ?timing ~at spec args ] else []

let push w ~at (jumps : Interp.jump_info) kind =
  w.ctrl <- { kind; cbegin = at; cend = jumps.end_of.(at) } :: w.ctrl

let pop w =
  match w.ctrl with
  | e :: rest -> w.ctrl <- rest; e
  | [] -> invalid_arg "unbalanced end"

(* a value argument: the folded constant or the dynamic source *)
let value_arg w ~at ins src = match fold w ~at ins with Some [ v ] -> Imm v | _ -> src

(** The events of one original instruction: a structured one (which
    keeps the control stack), or one an enabled group may fire at (see
    {!would_hook}). Must be called before [Tracker.step] for it (it
    inspects the abstract stack). *)
let live_events w ~at (ins : instr) (jumps : Interp.jump_info) : event list =
  match ins with
  | Nop -> [ ev ~timing:After ~at S_nop [] ]
  | Unreachable -> [ ev ~at S_unreachable [] ]
  | Block _ ->
    push w ~at jumps Bblock;
    (one w ~at ~timing:After G_begin (S_begin Bblock) [])
  | Loop _ ->
    push w ~at jumps Bloop;
    (one w ~at ~timing:Body_head G_begin (S_begin Bloop) [])
  | If _ ->
    let cond =
      if not (enabled w G_if) then []
      else
        match fold w ~at ins with
        | Some [ k ] -> [ ev ~at S_if_cond [ Imm k ] ]
        | _ -> if known w 0 = None then [] else [ ev ~at S_if_cond [ Operand 0 ] ]
    in
    push w ~at jumps Bif;
    (cond @ one w ~at ~timing:Body_head G_begin (S_begin Bif) [])
  | Else ->
    (* the then-branch ends here; the else-branch begins *)
    let e = pop w in
    w.ctrl <- { e with kind = Belse; cbegin = at } :: w.ctrl;
    (one w ~at G_end (S_end Bif) [ imm e.cbegin ]
       @ one w ~at ~timing:Body_head G_begin (S_begin Belse) [])
  | End ->
    let e = pop w in
    (one w ~at G_end (S_end e.kind) [ imm e.cbegin ])
  | Br l ->
    let target = (resolve_target w l).Metadata.target_loc.Location.instr in
    one w ~at G_br S_br [ imm l; imm target ]
    @ if enabled w G_end then end_events (ended_blocks w l) else []
  | BrIf l ->
    let target = (resolve_target w l).Metadata.target_loc.Location.instr in
    let br_if cond = one w ~at G_br_if S_br_if [ imm l; imm target; cond ] in
    let ends ?timing () =
      if enabled w G_end then end_events ?timing (ended_blocks w l) else []
    in
    (match fold w ~at ins with
     | Some [ (Value.I32 k as kv) ] ->
       (* constant condition: the branch outcome is statically decided,
          so the end events need no runtime guard *)
       br_if (Imm kv) @ if k <> 0l then ends () else []
     | _ -> if known w 0 = None then skip_dead w ~at else br_if (Operand 0) @ ends ~timing:Taken ())
  | BrTable (ls, d) ->
    if known w 0 = None then skip_dead w ~at
    else begin
      let entry l = (resolve_target w l, ended_blocks w l) in
      w.br_tables <-
        { Metadata.bt_loc = Location.make ~func:w.func ~instr:at;
          bt_targets = Array.of_list (List.map entry ls);
          bt_default = entry d }
        :: w.br_tables;
      (* the end events are selected and fired at runtime from the metadata *)
      [ ev ~at S_br_table [ value_arg w ~at ins (Operand 0) ] ]
    end
  | Return ->
    let want_ret = enabled w G_return and want_end = enabled w G_end in
    let ends () =
      if want_end then end_events (ended_blocks w (List.length w.ctrl - 1)) else []
    in
    (match Tracker.results w.tracker with
     | [] -> one w ~at G_return (S_return []) [] @ ends ()
     | _ when not want_ret -> ends ()
     | [ rt ] ->
       (match fold w ~at ins with
        | Some [ v ] -> ev ~at (S_return [ rt ]) [ Imm v ] :: ends ()
        | _ ->
          if known w 0 = None then skip_dead w ~at
          else ev ~at (S_return [ rt ]) [ Operand 0 ] :: ends ())
     | _ -> invalid_arg "multiple results not supported")
  | Call f -> call_events ~at (Tracker.func_type w.tracker f) ~callee:(imm f) ~indirect:false
  | CallIndirect ti ->
    call_events ~at (Tracker.type_at w.tracker ti) ~callee:(Operand 0) ~indirect:true
  | Drop ->
    (match known w 0 with
     | Some ty ->
       (match fold w ~at ins with
        | Some [ v ] -> [ ev ~timing:After ~at (S_drop ty) [ Imm v ] ]
        | _ -> [ ev ~at (S_drop ty) [ Operand 0 ] ])
     | None -> [])
  | Select ->
    (match known w 1, known w 2 with
     | Some ty, _ | _, Some ty -> [ ev ~at (S_select ty) [ Operand 0; Operand 2; Operand 1 ] ]
     | None, None -> [])
  | LocalGet x | LocalSet x | LocalTee x ->
    let op = match ins with LocalGet _ -> Lget | LocalSet _ -> Lset | _ -> Ltee in
    (* after the instruction the local holds the reported value, for all
       three ops *)
    let spec = S_local (op, Tracker.local_type w.tracker x) in
    [ ev ~timing:After ~at spec [ imm x; value_arg w ~at ins (Local x) ] ]
  | GlobalGet x | GlobalSet x ->
    let ty = (Tracker.global_type w.tracker x).content in
    let op, src = match ins with GlobalGet _ -> (Gget, Result) | _ -> (Gset, Operand 0) in
    [ ev ~timing:After ~at (S_global (op, ty)) [ imm x; value_arg w ~at ins src ] ]
  | Load op ->
    [ ev ~timing:After ~at (S_load (string_of_instr ins, op.lty)) [ Operand 0; imm op.loffset; Result ] ]
  | Store op ->
    [ ev ~timing:After ~at (S_store (string_of_instr ins, op.sty)) [ Operand 1; imm op.soffset; Operand 0 ] ]
  | MemorySize -> [ ev ~timing:After ~at S_memory_size [ Result ] ]
  | MemoryGrow -> [ ev ~timing:After ~at S_memory_grow [ Operand 0; Result ] ]
  | Const v -> [ ev ~timing:After ~at (S_const (Value.type_of v)) [ Imm v ] ]
  | Test _ | Unary _ | Convert _ ->
    let it, rt =
      match ins with
      | Test (IEqz sz) -> (num_type_of_isize sz, I32T)
      | Unary (IUn (sz, _)) -> (num_type_of_isize sz, num_type_of_isize sz)
      | Unary (FUn (sz, _)) -> (num_type_of_fsize sz, num_type_of_fsize sz)
      | Convert op -> Tracker.cvt_types op
      | _ -> assert false
    in
    let args =
      match fold w ~at ins with
      | Some [ a; r ] -> [ Imm a; Imm r ]
      | _ -> [ Operand 0; Result ]
    in
    [ ev ~timing:After ~at (S_unary (string_of_instr ins, it, rt)) args ]
  | Compare _ | Binary _ ->
    let ot, rt =
      match ins with
      | Compare (IRel (sz, _)) -> (num_type_of_isize sz, I32T)
      | Compare (FRel (sz, _)) -> (num_type_of_fsize sz, I32T)
      | Binary (IBin (sz, _)) -> (num_type_of_isize sz, num_type_of_isize sz)
      | Binary (FBin (sz, _)) -> (num_type_of_fsize sz, num_type_of_fsize sz)
      | _ -> assert false
    in
    let args =
      match fold w ~at ins with
      | Some [ a; b; r ] -> [ Imm a; Imm b; Imm r ]
      | _ -> [ Operand 1; Operand 0; Result ]
    in
    [ ev ~timing:After ~at (S_binary (string_of_instr ins, ot, ot, rt)) args ]

(** The plan of defined function [fidx] (function-space index) for the
    hook [groups]. With [facts] ([~fold]), a site the abstract
    interpretation proves unreachable gets no events ([Metadata.F_dead],
    verified by the lint against recomputed facts), and arguments it
    proves constant become immediates. [vctx] is the module's validation
    context; the module must be valid. *)
let func ~groups ~facts ~vctx ~fidx ~is_start (f : func)
    (site : int -> event list -> Metadata.br_table_info option -> unit) : t =
  let body = Array.of_list f.body in
  let n = Array.length body in
  let jumps = Interp.compute_jumps body in
  let w = {
    func = fidx;
    groups = Group_set.elements groups;
    tracker = Tracker.create_in vctx f;
    facts;
    ctrl = [ { kind = Bfunction; cbegin = -1; cend = n } ];
    br_tables = [];
    dead = [];
    fold_log = [];
  } in
  let fn_event g spec args = if enabled w g then [ ev ~at:(-1) spec args ] else [] in
  site (-1) ((if is_start then fn_event G_start S_start [] else []) @ fn_event G_begin (S_begin Bfunction) []) None;
  (* each instruction's events go to the backend as they are planned:
     held for a whole body, they would outlive minor collections *)
  Array.iteri
    (fun at ins ->
       let tables = w.br_tables in
       let events =
         match facts with
         | _ when not (would_hook w ins || structured ins) -> []
         | Some fx when would_hook w ins && not (Static.Absint.live fx ~func:fidx ~pc:at) ->
           w.fold_log <- F_dead (loc w at) :: w.fold_log;
           []
         | _ -> live_events w ~at ins jumps
       in
       site at events (if w.br_tables == tables then None else Some (List.hd w.br_tables));
       Tracker.step w.tracker ins)
    body;
  site n (if enabled w G_end then [ ev ~at:n (S_end Bfunction) [ imm (-1) ] ] else []) None;
  { br_tables = w.br_tables; dead_skipped = List.rev w.dead; folded = List.rev w.fold_log }
