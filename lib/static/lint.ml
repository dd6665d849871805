(** Instrumentation-soundness lint (see lint.mli).

    The core is a greedy two-pointer subsequence match between the
    original and instrumented bodies, driven by two validation trackers
    running in lock-step: an instrumented instruction is accepted as the
    image of the next original instruction only when the instructions
    agree (after index remapping) {e and} the two abstract stacks are
    identical at that point. The shape guard is what makes greedy matching
    safe: an inserted hook-argument constant can only be mistaken for an
    original constant when it pushes the same value at the same stack
    shape, in which case the match is semantically interchangeable and the
    two streams re-synchronise within a few instructions. Everything
    between matches must be stack-neutral (enforced by the shape equality
    at match points) and drawn from the instrumenter's insertion
    vocabulary. *)

open Wasm
open Wasm.Ast
module W = Wasabi
module Tracker = Validate.Stack_tracker

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  code : string;
  func : int option;
  at : int option;
  message : string;
}

(* [Stdlib.compare] rather than [=]: instruction immediates contain
   floats, and NaN-valued constants must compare equal to themselves *)
let eq a b = Stdlib.compare a b = 0

let finding ?func ?at severity code fmt =
  Printf.ksprintf (fun message -> { severity; code; func; at; message }) fmt

(* ------------------------------------------------------------------ *)
(* Import / section checks *)

let check_imports (orig : module_) (inst : module_) (md : W.Metadata.t) =
  let out = ref [] in
  let add f = out := f :: !out in
  let inst_types = Array.of_list inst.types in
  let n_orig_imports = List.length orig.imports in
  let rec split n l =
    if n = 0 then ([], l)
    else match l with [] -> ([], []) | x :: r -> let a, b = split (n - 1) r in (x :: a, b)
  in
  let kept, hook_imports = split n_orig_imports inst.imports in
  if not (eq kept orig.imports) then
    add (finding Error "import" "original imports are not preserved as a prefix");
  let specs = md.W.Metadata.hook_specs in
  if List.length hook_imports <> Array.length specs then
    add
      (finding Error "hook-import" "%d hook imports for %d recorded hook specs"
         (List.length hook_imports) (Array.length specs))
  else
    List.iteri
      (fun k im ->
         let spec = specs.(k) in
         if im.module_name <> W.Hook.import_module then
           add
             (finding Error "hook-import" "hook %d imported from %S, expected %S" k
                im.module_name W.Hook.import_module);
         if im.item_name <> W.Hook.name spec then
           add
             (finding Error "hook-import" "hook %d named %S, expected %S" k im.item_name
                (W.Hook.name spec));
         match im.idesc with
         | FuncImport ti ->
           let expect = W.Hook.signature ~split_i64:md.W.Metadata.split_i64 spec in
           if ti < 0 || ti >= Array.length inst_types
              || not (Types.equal_func_type inst_types.(ti) expect)
           then
             add
               (finding Error "hook-import" "hook %d (%s) has a wrong signature" k
                  (W.Hook.name spec))
         | _ -> add (finding Error "hook-import" "hook %d is not a function import" k))
      hook_imports;
  !out

let check_sections (orig : module_) (inst : module_) ~remap =
  let out = ref [] in
  let add f = out := f :: !out in
  if not (eq orig.memories inst.memories) then
    add (finding Error "section" "memory section changed");
  if not (eq orig.datas inst.datas) then
    add (finding Error "section" "data section changed");
  if not (eq orig.tables inst.tables) then
    add (finding Error "section" "table section changed");
  if not (eq orig.globals inst.globals) then
    add (finding Error "section" "global section changed");
  (* original types must be preserved as a prefix (hook signatures append) *)
  let rec is_prefix a b =
    match a, b with
    | [], _ -> true
    | x :: a', y :: b' -> Types.equal_func_type x y && is_prefix a' b'
    | _, [] -> false
  in
  if not (is_prefix orig.types inst.types) then
    add (finding Error "section" "original types are not preserved as a prefix");
  if List.length orig.exports <> List.length inst.exports then
    add (finding Error "export" "export count changed")
  else
    List.iter2
      (fun (a : export) (b : export) ->
         if a.name <> b.name then
           add (finding Error "export" "export %S renamed to %S" a.name b.name)
         else
           let ok =
             match a.edesc, b.edesc with
             | FuncExport i, FuncExport j -> j = remap i
             | da, db -> eq da db
           in
           if not ok then
             add (finding Error "export" "export %S maps to the wrong index" a.name))
      orig.exports inst.exports;
  (match orig.start, inst.start with
   | None, None -> ()
   | Some s, Some s' when s' = remap s -> ()
   | _ -> add (finding Error "section" "start function changed"));
  if List.length orig.elems <> List.length inst.elems then
    add (finding Error "section" "element segment count changed")
  else
    List.iter2
      (fun (a : elem_segment) (b : elem_segment) ->
         if a.etable <> b.etable || not (eq a.eoffset b.eoffset)
            || not (eq (List.map remap a.einit) b.einit)
         then add (finding Error "section" "element segment changed"))
      orig.elems inst.elems;
  !out

(* ------------------------------------------------------------------ *)
(* Per-function body check *)

(** Instructions the instrumenter may insert between original ones:
    hook-argument pushes (constants, local reads, i64 splitting), value
    plumbing through fresh temporaries, calls to hook imports, and the
    [if]/[end] wrapper around conditional end-hook calls. *)
let inserted_ok ~first_temp ~is_hook ins =
  match ins with
  | Const _ | LocalGet _ -> true
  | LocalSet l | LocalTee l -> l >= first_temp
  | Call k -> is_hook k
  | Convert I32WrapI64 -> true
  | Binary (IBin (Types.S64, ShrS)) -> true
  | If None | End -> true
  | _ -> false

let check_func ~ctx_o ~ctx_i ~remap ~is_hook ~fidx (f : func) (g : func) =
  let out = ref [] in
  let add f = out := f :: !out in
  if f.ftype <> g.ftype then
    add (finding Error "func-type" ~func:fidx "function type index changed");
  let rec is_prefix a b =
    match a, b with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _, [] -> false
  in
  if not (is_prefix f.locals g.locals) then
    add (finding Error "locals" ~func:fidx "original locals are not preserved as a prefix");
  let nparams = List.length ctx_o.Validate.Module_ctx.types.(f.ftype).Types.params in
  let first_temp = nparams + List.length f.locals in
  let ob = Array.of_list f.body and ib = Array.of_list g.body in
  let no = Array.length ob and ni = Array.length ib in
  let tr_o = Tracker.create_in ctx_o f and tr_i = Tracker.create_in ctx_i g in
  let shapes_ok () =
    Tracker.in_dead_code tr_o || Tracker.in_dead_code tr_i
    || (Tracker.value_depth tr_o = Tracker.value_depth tr_i
        && Tracker.stack tr_o = Tracker.stack tr_i)
  in
  let expected j = match ob.(j) with Call t -> Call (remap t) | ins -> ins in
  let matches j i =
    let instr_ok =
      eq ib.(i) (expected j)
      || (match ob.(j), ib.(i) with
          | Drop, LocalSet l -> l >= first_temp  (* Table 3, row 4 *)
          | _ -> false)
    in
    instr_ok && shapes_ok ()
  in
  let insertions_flagged = ref 0 in
  let flag_insertion i =
    if not (inserted_ok ~first_temp ~is_hook ib.(i)) && !insertions_flagged < 5 then begin
      incr insertions_flagged;
      add
        (finding Error "insertion" ~func:fidx
           "inserted instruction %s is outside the instrumenter's vocabulary"
           (Ast.string_of_instr ib.(i)))
    end
  in
  (try
     let j = ref 0 and i = ref 0 in
     let lost = ref false in
     while (not !lost) && !j < no do
       if !i >= ni then begin
         lost := true;
         add
           (finding Error "order" ~func:fidx ~at:!j
              "original instruction %s lost (or reordered / stack shape changed)"
              (Ast.string_of_instr ob.(!j)))
       end
       else if matches !j !i then begin
         Tracker.step tr_o ob.(!j);
         Tracker.step tr_i ib.(!i);
         incr j;
         incr i
       end
       else begin
         flag_insertion !i;
         Tracker.step tr_i ib.(!i);
         incr i
       end
     done;
     if not !lost then begin
       for k = !i to ni - 1 do
         flag_insertion k;
         Tracker.step tr_i ib.(k)
       done;
       if not (shapes_ok ()) then
         add
           (finding Error "stack-shape" ~func:fidx ~at:no
              "stack shape differs at the end of the function body");
       Tracker.finish tr_o;
       Tracker.finish tr_i
     end
   with Validate.Invalid msg ->
     add (finding Error "invalid" ~func:fidx "body does not validate: %s" msg));
  !out

let check_pruned ~remap ~fidx (f : func) (g : func) =
  let expect =
    { f with body = List.map (function Call t -> Call (remap t) | i -> i) f.body }
  in
  if eq expect g then []
  else [ finding Error "pruned" ~func:fidx "pruned function was modified beyond call remapping" ]

(* ------------------------------------------------------------------ *)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let check (r : W.Instrument.result) : finding list =
  let md = r.W.Instrument.metadata in
  let orig = md.W.Metadata.original in
  let inst = r.W.Instrument.instrumented in
  let n_imp = md.W.Metadata.num_original_func_imports in
  let n_orig = Ast.num_funcs orig in
  let h = md.W.Metadata.num_hooks in
  let remap = W.Instrument.remap_index ~n_imp ~n_orig ~h in
  let is_hook k = k >= n_imp && k < n_imp + h in
  let out = ref [] in
  let add l = out := l @ !out in
  add (check_imports orig inst md);
  add (check_sections orig inst ~remap);
  if List.length orig.funcs <> List.length inst.funcs then
    add [ finding Error "section" "defined function count changed" ]
  else begin
    let ctx_o = Validate.Module_ctx.create orig in
    match Validate.Module_ctx.create inst with
    | exception Validate.Invalid msg ->
      add [ finding Error "invalid" "instrumented module context: %s" msg ]
    | ctx_i ->
      List.iteri
        (fun k (f, g) ->
           let fidx = n_imp + k in
           if List.mem fidx md.W.Metadata.pruned_funcs then
             add (check_pruned ~remap ~fidx f g)
           else add (check_func ~ctx_o ~ctx_i ~remap ~is_hook ~fidx f g))
        (List.combine orig.funcs inst.funcs)
  end;
  (* selective instrumentation must only prune statically-dead functions;
     with [~fold] the pruner uses the abstract-interpretation call graph,
     so a function reachable in the type-pool graph is re-checked against
     the precise one before being flagged *)
  if md.W.Metadata.pruned_funcs <> [] then begin
    let cg = Static.Callgraph.build orig in
    let pcg = lazy (Static.Callgraph.build ~precise:true orig) in
    List.iter
      (fun fidx ->
         if Static.Callgraph.is_reachable cg fidx
            && Static.Callgraph.is_reachable (Lazy.force pcg) fidx
         then
           add
             [ finding Error "pruned" ~func:fidx
                 "pruned function is reachable from an export/start root" ])
      md.W.Metadata.pruned_funcs
  end;
  (* every statically-discharged hook site must be justified by the facts
     recomputed from the original module *)
  if md.W.Metadata.folded <> [] then begin
    let fx = Static.Absint.analyze orig in
    let bodies = Array.of_list orig.funcs in
    let instr_at (loc : W.Location.t) =
      let i = loc.W.Location.func - n_imp in
      if i < 0 || i >= Array.length bodies then None
      else List.nth_opt bodies.(i).body loc.W.Location.instr
    in
    List.iter
      (fun site ->
         match site with
         | W.Metadata.F_dead loc ->
           if Static.Absint.live fx ~func:loc.W.Location.func ~pc:loc.W.Location.instr
           then
             add
               [ finding Error "fold" ~func:loc.W.Location.func ~at:loc.W.Location.instr
                   "dead-folded site is live in the recomputed facts" ]
         | W.Metadata.F_args (loc, vs) ->
           (match instr_at loc with
            | None ->
              add
                [ finding Error "fold" ~func:loc.W.Location.func ~at:loc.W.Location.instr
                    "folded site does not exist in the original module" ]
            | Some ins ->
              let agree =
                match
                  W.Plan.static_fold_args fx ~func:loc.W.Location.func
                    ~at:loc.W.Location.instr ins
                with
                | Some vs' -> List.length vs = List.length vs' && List.for_all2 eq vs vs'
                | None -> false
              in
              if not agree then
                add
                  [ finding Error "fold" ~func:loc.W.Location.func ~at:loc.W.Location.instr
                      "folded constant arguments disagree with the recomputed facts" ]))
      md.W.Metadata.folded
  end;
  List.iter
    (fun (loc : W.Location.t) ->
       add
         [ finding Info "dead-skip" ~func:loc.W.Location.func ~at:loc.W.Location.instr
             "branch/return in statically-unreachable code left uninstrumented" ])
    md.W.Metadata.dead_skipped;
  List.stable_sort
    (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
    (List.rev !out)

let errors = List.filter (fun f -> f.severity = Error)

let to_string f =
  let sev = match f.severity with Error -> "error" | Warning -> "warning" | Info -> "info" in
  let loc =
    match f.func, f.at with
    | Some fn, Some at -> Printf.sprintf " f%d@%d" fn at
    | Some fn, None -> Printf.sprintf " f%d" fn
    | None, _ -> ""
  in
  Printf.sprintf "%s[%s]%s: %s" sev f.code loc f.message

let report findings =
  let lines = List.map to_string findings in
  let n_err = List.length (errors findings) in
  let summary =
    if findings = [] then "lint: clean"
    else
      Printf.sprintf "lint: %d finding%s (%d error%s)"
        (List.length findings)
        (if List.length findings = 1 then "" else "s")
        n_err
        (if n_err = 1 then "" else "s")
  in
  String.concat "\n" (lines @ [ summary ])
