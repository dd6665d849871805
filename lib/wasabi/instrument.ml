(** The Wasabi binary instrumenter (paper, Section 2.4).

    Given a module and a set of hook {e groups} (selective
    instrumentation), produces a new module in which every instruction of
    an enabled group is surrounded by calls to imported low-level hooks.
    Which hooks fire where, with which arguments, comes from the event
    {!Plan}; this module lowers it to wasm following Table 3 of the
    paper:

    - values consumed or produced by an instruction are duplicated through
      freshly generated locals (the instruction's save/restore shape) and
      passed to the hook. Where only counted hook sites read them, tier 1
      compiles that shape away ({!Wasm.Tier1.compile}: the restoring
      loads are elided and the stores no surviving read needs are dead),
      so the bytes keep Table 3's shape at no run-time cost there;
    - hooks are imported functions, monomorphized on demand (one per
      instruction mnemonic and concrete type variant);
    - the [end] hooks a [br_if] fires only when taken run under a guard
      on its condition;
    - i64 values are split into two i32 halves before being passed to a
      hook.

    Adding the hook imports shifts the indices of all originally defined
    functions, so instrumented code initially calls hooks through
    placeholder indices which a final pass remaps (along with all original
    call sites, element segments, exports and the start function). *)

open Wasm
open Wasm.Types
open Wasm.Ast
open Hook

type result = {
  instrumented : module_;
  metadata : Metadata.t;
  hook_map : Hook.Map.t;
}

type fctx = {
  fidx : int;  (** function-space index of the function being instrumented *)
  hooks : Hook.Map.t;
  placeholder_base : int;  (** hook k is called as function [placeholder_base + k] *)
  temp_tbl : (value_type * int, int) Hashtbl.t;
  hook_cache : (Hook.spec, int * int ref) Hashtbl.t;
      (** per-function cache over the shared, mutex-guarded map: each
          hook's ordinal and its requests by this function, flushed to
          the map in one batch when the function is done
          (monomorphization-cache stats) *)
  mutable extra_locals : value_type list;  (** reversed *)
  mutable n_extra : int;
  first_temp : int;
  split_i64 : bool;
}

(** Fresh (or reused) local of type [ty]; [slot] distinguishes temporaries
    that must coexist within one instrumented instruction. Temporaries are
    reused across instructions, so each function gains only a handful of
    locals. *)
let temp c ty slot =
  match Hashtbl.find_opt c.temp_tbl (ty, slot) with
  | Some i -> i
  | None ->
    let i = c.first_temp + c.n_extra in
    c.n_extra <- c.n_extra + 1;
    c.extra_locals <- ty :: c.extra_locals;
    Hashtbl.add c.temp_tbl (ty, slot) i;
    i

let iconst k = Const (Value.i32_of_int k)

(** Push the value held in local [l] (of type [ty]) as hook argument(s):
    i64 values are split into low and high i32 halves (Table 3, row 6)
    unless splitting is disabled (native-host ablation). *)
let push_local ~split ty l =
  match ty with
  | I64T when split ->
    [ LocalGet l; Convert I32WrapI64;
      LocalGet l; Const (Value.I64 32L); Binary (IBin (S64, ShrS)); Convert I32WrapI64 ]
  | _ -> [ LocalGet l ]

(** Push an immediate as hook argument(s); for i64 the paper's row 6
    sequence (duplicate, wrap / shift, wrap) is emitted. *)
let push_const ~split v =
  match v with
  | Value.I64 _ when split ->
    [ Const v; Convert I32WrapI64;
      Const v; Const (Value.I64 32L); Binary (IBin (S64, ShrS)); Convert I32WrapI64 ]
  | _ -> [ Const v ]

(** Ordinal of hook [spec], generating the hook on its first request. *)
let hook_ordinal c spec =
  match Hashtbl.find_opt c.hook_cache spec with
  | Some (k, requests) ->
    incr requests;
    k
  | None ->
    let k = Hook.Map.ordinal c.hooks spec in
    Hashtbl.add c.hook_cache spec (k, ref 1);
    k

(** Call hook [spec] at source location [at], with [args] already
    flattened (each element pushes the corresponding hook arguments). *)
let hook_call c ~at spec args =
  let k = hook_ordinal c spec in
  (iconst c.fidx :: iconst at :: List.concat args) @ [ Call (c.placeholder_base + k) ]

(** The Table 3 shape of one instruction: the code that saves its
    operands for the hooks before it and restores them, whether the
    instruction itself stays (a [drop]'s hook consumes its value), the
    code that keeps a copy of its result for the hooks after it, and the
    local each dynamic argument is read from. *)
type shape = {
  save : instr list;
  restore : instr list;
  keep : bool;
  tee : instr list;
  read : Plan.arg -> int;
}

let plain =
  { save = []; restore = []; keep = true; tee = [];
    read = (function Plan.Local x -> x | _ -> invalid_arg "hook argument has no local") }

(** The shape of [ins] whose events read dynamic arguments. Temporaries
    are requested in a fixed order per instruction kind. *)
let shape c (ins : instr) (events : Plan.event list) : shape =
  let tee_top ty = let t = temp c ty 0 in { plain with save = [ LocalTee t ]; read = (fun _ -> t) } in
  match ins, events with
  | (If _ | BrIf _ | BrTable _), _ -> tee_top I32T
  | GlobalSet _, [ { spec = S_global (_, ty); _ } ] -> tee_top ty
  | Return, { spec = S_return [ rt ]; _ } :: _ ->
    let t = temp c rt 0 in
    { plain with save = [ LocalSet t ]; restore = [ LocalGet t ]; read = (fun _ -> t) }
  | (Call _ | CallIndirect _),
    [ { spec = S_call_pre (params, indirect); _ }; { spec = S_call_post results; _ } ] ->
    let n = List.length params in
    let ps = List.mapi (fun j ty -> temp c ty j) params in
    (* operand temps, bottom first: the arguments, then a table index *)
    let ops = if indirect then ps @ [ temp c I32T n ] else ps in
    let by_depth = Array.of_list (List.rev ops) in
    let tee, result =
      match results with
      | [ rt ] -> let t = temp c rt (n + 1) in ([ LocalTee t ], t)
      | _ -> ([], -1)
    in
    { save = List.map (fun t -> LocalSet t) (List.rev ops);
      restore = List.map (fun t -> LocalGet t) ops;
      keep = true; tee;
      read = (function Plan.Operand d -> by_depth.(d) | _ -> result) }
  | Drop, [ { spec = S_drop ty; _ } ] ->
    let t = temp c ty 0 in
    { plain with save = [ LocalSet t ]; keep = false; read = (fun _ -> t) }
  | Select, [ { spec = S_select ty; _ } ] ->
    let tc = temp c I32T 0 in
    let t2 = temp c ty 1 in
    let t1 = temp c ty 2 in
    { plain with
      save = [ LocalSet tc; LocalSet t2; LocalSet t1 ];
      restore = [ LocalGet t1; LocalGet t2; LocalGet tc ];
      read = (function Plan.Operand 0 -> tc | Plan.Operand 1 -> t2 | _ -> t1) }
  | (GlobalGet _ | MemorySize), [ { spec; _ } ] ->
    let t = temp c (match spec with S_global (_, ty) -> ty | _ -> I32T) 0 in
    { plain with tee = [ LocalTee t ]; read = (fun _ -> t) }
  | (Load _ | MemoryGrow | Test _ | Unary _ | Convert _), [ { spec; _ } ] ->
    let ity, rty =
      match spec with
      | S_load (_, ty) -> (I32T, ty)
      | S_unary (_, it, rt) -> (it, rt)
      | _ -> (I32T, I32T)
    in
    let ti = temp c ity 0 in
    let tr = temp c rty 1 in
    { plain with save = [ LocalTee ti ]; tee = [ LocalTee tr ];
      read = (function Plan.Result -> tr | _ -> ti) }
  | Store _, [ { spec = S_store (_, ty); _ } ] ->
    let tv = temp c ty 1 in
    let ta = temp c I32T 0 in
    { plain with save = [ LocalSet tv; LocalTee ta; LocalGet tv ];
      read = (function Plan.Operand 0 -> tv | _ -> ta) }
  | (Compare _ | Binary _), [ { spec = S_binary (_, ot, _, rt); _ } ] ->
    let ta = temp c ot 0 in
    let tb = temp c ot 1 in
    let tr = temp c rt 2 in
    { plain with save = [ LocalSet tb; LocalTee ta; LocalGet tb ]; tee = [ LocalTee tr ];
      read = (function Plan.Operand 0 -> tb | Plan.Operand _ -> ta | _ -> tr) }
  | _ -> plain

let dynamic (e : Plan.event) =
  e.timing = Plan.Taken
  || List.exists (function Plan.Imm _ | Plan.Local _ -> false | _ -> true) e.args

(** The hook call of event [e]. *)
let call c (sh : shape) (e : Plan.event) =
  let split = c.split_i64 in
  hook_call c ~at:e.at e.spec
    (List.map2
       (fun a ty ->
          match a with
          | Plan.Imm v -> push_const ~split v
          | a -> push_local ~split ty (sh.read a))
       e.args (Hook.args e.spec))

(** Lower the planned events of one original instruction, emitting its
    replacement sequence. The plan lists an instruction's events by when
    they fire — before it, when its branch is taken, after it — and hook
    ordinals are assigned in first-request order, so hooks are requested
    in that order, except that a [return] requests the [end] hooks of the
    blocks it leaves before its own. *)
let lower c emit (ins : instr) (events : Plan.event list) =
  match events with
  | [] -> emit [ ins ]
  | _ ->
    let sh = if List.exists dynamic events then shape c ins events else plain in
    let rec take phase acc = function
      | (e : Plan.event) :: rest when e.timing = phase -> take phase (e :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let before, rest = take Plan.Before [] events in
    let taken, after = take Plan.Taken [] rest in
    let calls = List.iter (fun e -> emit (call c sh e)) in
    emit sh.save;
    (match ins, before with
     | Return, ({ spec = S_return _; _ } as ret) :: ends ->
       let ends = List.map (call c sh) ends in
       emit (call c sh ret);
       List.iter emit ends
     | _ -> calls before);
    (* the end hooks of a br_if run only when the branch is taken *)
    if not (List.is_empty taken) then begin
      emit [ LocalGet (sh.read (Plan.Operand 0)); If None ];
      calls taken;
      emit [ End ]
    end;
    emit sh.restore;
    if sh.keep then emit [ ins ];
    emit sh.tee;
    calls after

let instrument_func ~groups ~hooks ~placeholder_base ~split_i64 ~vctx ~fidx ~is_start
    ~facts (f : func)
    : func * Metadata.br_table_info list * Location.t list * Metadata.fold_site list =
  let params = vctx.Validate.Module_ctx.types.(f.ftype).params in
  let c = {
    fidx;
    hooks;
    placeholder_base;
    temp_tbl = Hashtbl.create 8;
    hook_cache = Hashtbl.create 32;
    extra_locals = [];
    n_extra = 0;
    first_temp = List.length params + List.length f.locals;
    split_i64;
  } in
  let out = ref [] in
  let emit is = out := List.rev_append is !out in
  let body = Array.of_list f.body in
  let plan =
    Plan.func ~groups ~facts ~vctx ~fidx ~is_start f (fun at events _ ->
      if at < 0 || at >= Array.length body then List.iter (fun e -> emit (call c plain e)) events
      else lower c emit body.(at) events)
  in
  let f' = {
    f with
    locals = f.locals @ List.rev c.extra_locals;
    body = List.rev !out;
  } in
  Hook.Map.note_requests hooks
    (Hashtbl.fold (fun s (_, r) acc -> (s, !r) :: acc) c.hook_cache []);
  (f', plan.br_tables, plan.dead_skipped, plan.folded)

(** Remap a function index after hook imports have been inserted.
    [n_imp] original imported functions keep their indices; the [h] hooks
    take indices [n_imp .. n_imp+h-1]; originally defined functions shift
    up by [h]. Instrumented code refers to hook [k] through the
    placeholder index [n_orig + k]. *)
let remap_index ~n_imp ~n_orig ~h idx =
  if idx < n_imp then idx
  else if idx >= n_orig then n_imp + (idx - n_orig)  (* hook placeholder *)
  else idx + h

let remap_instr remap = function
  | Call f -> Call (remap f)
  | i -> i

(** Instrument the defined functions, optionally across several domains:
    functions are independent — the only shared state is the mutex-guarded
    monomorphization map (paper, Section 3). Results are kept in function
    order regardless of scheduling. *)
let instrument_functions ~groups ~hooks ~split_i64 ~vctx ~n_imp ~n_orig ~start ~domains
    ~instrument_fidx ~facts funcs =
  let arr = Array.of_list funcs in
  let results = Array.make (Array.length arr) None in
  let one i f =
    let fidx = n_imp + i in
    results.(i) <-
      Some
        (if instrument_fidx fidx then
           instrument_func ~groups ~hooks ~placeholder_base:n_orig ~split_i64 ~vctx ~fidx
             ~is_start:(start = Some fidx) ~facts f
         else
           (* pruned: the body is kept verbatim; the final remapping pass
              still fixes its call sites for the shifted index space *)
           (f, [], [], []))
  in
  if domains <= 1 || Array.length arr < 2 then Array.iteri one arr
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length arr then begin
          one i arr.(i);
          go ()
        end
      in
      go ()
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  Array.to_list (Array.map Option.get results)

(** Instrument [m] for the hook groups in [groups] (defaults to all).
    [domains] > 1 instruments functions in parallel (hook ordinals then
    depend on scheduling, but the output is always valid and equivalent).
    The input module must be valid. *)
let instrument ?(groups = Hook.all) ?(split_i64 = true) ?(domains = 1)
    ?(prune_unreachable = false) ?(fold = false) (m : module_) : result =
  Obs.Span.with_ "instrument" @@ fun () ->
  let hooks = Hook.Map.create () in
  let vctx = Validate.Module_ctx.create m in
  let n_imp = num_imported_funcs m in
  let n_orig = num_funcs m in
  let facts =
    if fold then
      Some (Obs.Span.with_ "instrument.absint" @@ fun () -> Static.Absint.analyze m)
    else None
  in
  let pruned_funcs =
    if prune_unreachable then
      Obs.Span.with_ "instrument.prune" @@ fun () ->
      (* with folding on, prune against the abstract-interpretation call
         graph: resolved indirect targets expose more dead functions *)
      Static.Callgraph.dead_functions (Static.Callgraph.build ~precise:fold m)
    else []
  in
  let instrument_fidx fidx = not (List.mem fidx pruned_funcs) in
  let instrumented_funcs =
    Obs.Span.with_ "instrument.functions" @@ fun () ->
    instrument_functions ~groups ~hooks ~split_i64 ~vctx ~n_imp ~n_orig ~start:m.start ~domains
      ~instrument_fidx ~facts m.funcs
  in
  Obs.Span.with_ "instrument.assemble" @@ fun () ->
  let funcs' = List.map (fun (f, _, _, _) -> f) instrumented_funcs in
  let h = Hook.Map.count hooks in
  let specs = Hook.Map.specs hooks in
  (* add hook signatures to the type section (re-using existing entries) *)
  let types = ref (List.rev m.types) in
  let n_types = ref (List.length m.types) in
  let type_index ft =
    let rec find i = function
      | [] -> None
      | t :: rest -> if equal_func_type t ft then Some (!n_types - 1 - i) else find (i + 1) rest
    in
    match find 0 !types with
    | Some i -> i
    | None ->
      types := ft :: !types;
      incr n_types;
      !n_types - 1
  in
  let hook_imports =
    Array.to_list specs
    |> List.map (fun spec ->
      { module_name = Hook.import_module;
        item_name = Hook.name spec;
        idesc = FuncImport (type_index (Hook.signature ~split_i64 spec)) })
  in
  let remap = remap_index ~n_imp ~n_orig ~h in
  let funcs'' =
    List.map (fun f -> { f with body = List.map (remap_instr remap) f.body }) funcs'
  in
  let instrumented = {
    m with
    types = List.rev !types;
    imports = m.imports @ hook_imports;
    funcs = funcs'';
    exports =
      List.map
        (fun e ->
           match e.edesc with
           | FuncExport i -> { e with edesc = FuncExport (remap i) }
           | _ -> e)
        m.exports;
    start = Option.map remap m.start;
    elems =
      List.map (fun e -> { e with einit = List.map remap e.einit }) m.elems;
  } in
  let metadata = {
    Metadata.original = m;
    groups;
    split_i64;
    br_tables =
      List.fold_left
        (fun acc (_, bts, _, _) ->
           List.fold_left
             (fun acc (bt : Metadata.br_table_info) -> Location.Map.add bt.bt_loc bt acc)
             acc bts)
        Location.Map.empty instrumented_funcs;
    num_hooks = h;
    hook_specs = specs;
    num_original_func_imports = n_imp;
    func_names = Metadata.extract_func_names m;
    dead_skipped = List.concat_map (fun (_, _, dead, _) -> dead) instrumented_funcs;
    pruned_funcs;
    folded = List.concat_map (fun (_, _, _, folded) -> folded) instrumented_funcs;
  } in
  { instrumented; metadata; hook_map = hooks }
