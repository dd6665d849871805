(** Instruction mix analysis (paper, Table 4, 42 LoC): counts how often
    each kind of instruction is executed. Serves as a basis for
    performance and security analyses. Uses all hooks. *)

open Wasabi

type t = { counts : (string, int ref) Hashtbl.t }

let create () = { counts = Hashtbl.create 64 }

let groups = Hook.all

(* The counter cell of a key, created at zero: a hook site resolves its
   cell once, when it binds, possibly in code that never runs. *)
let cell t key =
  try Hashtbl.find t.counts key
  with Not_found -> let c = ref 0 in Hashtbl.add t.counts key c; c

let bump t key = incr (cell t key)

(* statically allocated keys for the block/const shapes, which would
   otherwise concatenate a fresh string per event *)
let begin_key = function
  | Hook.Bfunction -> "begin_function"
  | Bblock -> "begin_block"
  | Bloop -> "begin_loop"
  | Bif -> "begin_if"
  | Belse -> "begin_else"

let end_key = function
  | Hook.Bfunction -> "end_function"
  | Bblock -> "end_block"
  | Bloop -> "end_loop"
  | Bif -> "end_if"
  | Belse -> "end_else"

let const_key v =
  match Wasm.Value.type_of v with
  | Wasm.Types.I32T -> "i32.const"
  | I64T -> "i64.const"
  | F32T -> "f32.const"
  | F64T -> "f64.const"

(* the key every event of a spec counts under: its hook name without the
   type suffix, [None] for [call_post], which counts nothing (a
   [br_table] site, which also fires [end] events, is never asked). The
   callbacks below take the key from their arguments instead. *)
let key : Hook.spec -> string option = function
  | S_drop _ -> Some "drop"
  | S_select _ -> Some "select"
  | S_local (op, _) -> Some (Hook.local_op_name op)
  | S_global (op, _) -> Some (Hook.global_op_name op)
  | S_call_pre (_, indirect) -> Some (if indirect then "call_indirect" else "call")
  | S_call_post _ -> None
  | S_return _ -> Some "return"
  | spec -> Some (Hook.name spec)

let analysis (t : t) : Analysis.t =
  {
    Analysis.default with
    nop = (fun _ -> bump t "nop");
    unreachable = (fun _ -> bump t "unreachable");
    if_ = (fun _ _ -> bump t "if");
    br = (fun _ _ -> bump t "br");
    br_if = (fun _ _ _ -> bump t "br_if");
    br_table = (fun _ _ _ _ -> bump t "br_table");
    begin_ = (fun _ k -> bump t (begin_key k));
    end_ = (fun _ k _ -> bump t (end_key k));
    const = (fun _ v -> bump t (const_key v));
    drop = (fun _ _ -> bump t "drop");
    select = (fun _ _ _ _ -> bump t "select");
    unary = (fun _ op _ _ -> bump t op);
    binary = (fun _ op _ _ _ -> bump t op);
    local = (fun _ op _ _ -> bump t op);
    global = (fun _ op _ _ -> bump t op);
    load = (fun _ op _ _ -> bump t op);
    store = (fun _ op _ _ -> bump t op);
    memory_size = (fun _ _ -> bump t "memory.size");
    memory_grow = (fun _ _ _ -> bump t "memory.grow");
    call_pre =
      (fun _ _ _ ti ->
         bump t (match ti with None -> "call" | Some _ -> "call_indirect"));
    return_ = (fun _ _ -> bump t "return");
    start = (fun _ -> bump t "start");
    site =
      (fun s ->
         match key s.spec with
         | None -> Some ignore
         | Some k -> let c = cell t k in Some (fun () -> incr c));
  }

(** Absorb [src] into [into]: per-key counts are summed. The ref-cell
    counters are single-domain state, so parallel runs (serve workers,
    fuzz jobs) each count into their own [t] and merge at report time.
    [src] is left unchanged. *)
let merge ~into src =
  Hashtbl.iter (fun key c -> let dst = cell into key in dst := !dst + !c) src.counts

let count t key =
  match Hashtbl.find_opt t.counts key with Some c -> !c | None -> 0

(* every event bumps exactly one cell *)
let total t = Hashtbl.fold (fun _ c n -> n + !c) t.counts 0

(** Counts sorted by frequency, most frequent first, ties by key; the
    cells of sites that never ran are left out. *)
let sorted t =
  Hashtbl.fold (fun k v acc -> if !v > 0 then (k, !v) :: acc else acc) t.counts []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then Int.compare b a else String.compare ka kb)

let report t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "instruction mix: %d instructions executed\n" (total t));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-20s %8d\n" k v))
    (sorted t);
  Buffer.contents buf
