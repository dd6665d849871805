(** Record and replay (in the spirit of Jalangi, which the paper cites as
    the JavaScript analogue): records the full stream of analysis events
    during execution and replays it later into any other analysis —
    enabling off-line analyses over a single recorded run, e.g. the
    paper's memory-trace use case.

    Events can also be rendered as a text log for external tools. *)

open Wasabi

type event = Analysis.event

type t = {
  mutable events : event list;  (** reversed *)
  mutable count : int;
}

let create () = { events = []; count = 0 }

let groups = Hook.all

let push t e =
  t.events <- e :: t.events;
  t.count <- t.count + 1

let analysis (t : t) : Analysis.t = Analysis.reify (push t)

(** Events in execution order. *)
let events t = List.rev t.events

let length t = t.count

(** Re-dispatch a recorded trace into another analysis, off-line. *)
let replay t (a : Analysis.t) = List.iter (Analysis.apply a) (events t)

let vs values = String.concat "," (List.map Wasm.Value.to_string values)
let ls l = Location.to_string l
let tg (t : Metadata.target) = Printf.sprintf "%d->%s" t.Metadata.label (ls t.Metadata.target_loc)

(** One-line rendering of an event, for text logs. *)
let event_to_string : event -> string = function
  | E_nop l -> Printf.sprintf "%s nop" (ls l)
  | E_unreachable l -> Printf.sprintf "%s unreachable" (ls l)
  | E_if (l, c) -> Printf.sprintf "%s if %b" (ls l) c
  | E_br (l, t) -> Printf.sprintf "%s br %s" (ls l) (tg t)
  | E_br_if (l, t, c) -> Printf.sprintf "%s br_if %s %b" (ls l) (tg t) c
  | E_br_table (l, tbl, d, idx) ->
    Printf.sprintf "%s br_table [%s] default=%s idx=%d" (ls l)
      (String.concat ";" (Array.to_list (Array.map tg tbl)))
      (tg d) idx
  | E_begin (l, k) -> Printf.sprintf "%s begin %s" (ls l) (Hook.block_kind_name k)
  | E_end (l, k, b) -> Printf.sprintf "%s end %s begin=%s" (ls l) (Hook.block_kind_name k) (ls b)
  | E_const (l, v) -> Printf.sprintf "%s const %s" (ls l) (Wasm.Value.to_string v)
  | E_drop (l, v) -> Printf.sprintf "%s drop %s" (ls l) (Wasm.Value.to_string v)
  | E_select (l, c, a, b) ->
    Printf.sprintf "%s select %b %s %s" (ls l) c (Wasm.Value.to_string a) (Wasm.Value.to_string b)
  | E_unary (l, op, i, r) ->
    Printf.sprintf "%s %s %s -> %s" (ls l) op (Wasm.Value.to_string i) (Wasm.Value.to_string r)
  | E_binary (l, op, a, b, r) ->
    Printf.sprintf "%s %s %s %s -> %s" (ls l) op (Wasm.Value.to_string a)
      (Wasm.Value.to_string b) (Wasm.Value.to_string r)
  | E_local (l, op, i, v) -> Printf.sprintf "%s %s %d %s" (ls l) op i (Wasm.Value.to_string v)
  | E_global (l, op, i, v) -> Printf.sprintf "%s %s %d %s" (ls l) op i (Wasm.Value.to_string v)
  | E_load (l, op, ma, v) ->
    Printf.sprintf "%s %s %ld+%d %s" (ls l) op ma.Analysis.addr ma.Analysis.offset
      (Wasm.Value.to_string v)
  | E_store (l, op, ma, v) ->
    Printf.sprintf "%s %s %ld+%d %s" (ls l) op ma.Analysis.addr ma.Analysis.offset
      (Wasm.Value.to_string v)
  | E_memory_size (l, s) -> Printf.sprintf "%s memory.size %d" (ls l) s
  | E_memory_grow (l, d, p) -> Printf.sprintf "%s memory.grow %d prev=%d" (ls l) d p
  | E_call_pre (l, f, args, ti) ->
    Printf.sprintf "%s call_pre func=%d [%s]%s" (ls l) f (vs args)
      (match ti with None -> "" | Some i -> Printf.sprintf " table=%d" i)
  | E_call_post (l, rs) -> Printf.sprintf "%s call_post [%s]" (ls l) (vs rs)
  | E_return (l, rs) -> Printf.sprintf "%s return [%s]" (ls l) (vs rs)
  | E_start l -> Printf.sprintf "%s start" (ls l)

let to_log t = String.concat "\n" (List.map event_to_string (events t))

let report t = Printf.sprintf "trace: %d events recorded\n" t.count
