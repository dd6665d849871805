(** Deterministic host fault injection: a seeded, replayable plan of
    faults applied to bound host functions (hook imports,
    [Interp.host_func_raw] bindings).

    A plan is derived entirely from a [(seed, index)] pair through the
    same splitmix64 streams as case generation, on its own disjoint
    index space ({!index_base}), so a repro line carrying the campaign
    seed, the case index and a [--faults] flag replays byte-identically:
    same faults, same actions, at the same host-call indices.

    Three fault actions model the ways a host can misbehave:

    - {b Trap}: the host function raises instead of returning — a
      crashing analysis hook. Classified as code ["injected-fault"], so
      oracles can tell injected faults from genuine guest traps.
    - {b Corrupt}: the host function is {e not} called; deterministic
      well-typed garbage is returned in its stead (hooks with no results
      are silently dropped) — a buggy analysis returning nonsense.
    - {b Burn}: the budget is burned — the attached instance's governor
      deadline is force-expired (or, with no governor, its fuel zeroed)
      — then the call proceeds; the run dies at the next batch boundary.
      This makes wall-clock deadline kills replayable without a clock.

    The wrapper counts only calls made while the plan is {e armed}, so a
    harness can instantiate (start-function hooks and all) before any
    fault becomes eligible, and disarm before the post-restore clean
    re-run. *)

open Wasm

type action = Trap | Corrupt | Burn

(** Case indices for fault plans: disjoint from generated cases ([0..])
    and mutated cases ([Harness.mut_index_base = 0x4000_0000]). *)
let index_base = 0x2000_0000

type event = {
  at : int;  (** armed host-call index the fault fires on *)
  action : action;
}

type t = {
  events : event array;  (** sorted by [at], unique indices *)
  seed : int;
  index : int;
  mutable calls : int;  (** armed host calls seen so far *)
  mutable armed : bool;
  mutable injected : int;  (** faults actually fired *)
  mutable target : Interp.instance option;  (** for [Burn] *)
}

(* hook-instrumented runs make a host call per executed instruction, so
   fault indices are biased small to fire within even tiny runs, with a
   tail reaching further in *)
let draw_at rng = if Rng.chance rng 70 then Rng.int rng 16 else Rng.int rng 256

let draw_action rng =
  match Rng.int rng 3 with 0 -> Trap | 1 -> Corrupt | _ -> Burn

let plan ~seed ~index : t =
  let rng = Rng.for_case ~seed ~index:(index_base + index) in
  let n = Rng.range rng 1 3 in
  let raw = Array.init n (fun _ -> { at = draw_at rng; action = draw_action rng }) in
  Array.sort (fun a b -> compare a.at b.at) raw;
  (* duplicate indices keep the first event only *)
  let events =
    Array.of_list
      (List.rev
         (snd
            (Array.fold_left
               (fun (last, acc) e -> if e.at = last then (last, acc) else (e.at, e :: acc))
               (-1, []) raw)))
  in
  { events; seed; index; calls = 0; armed = false; injected = 0; target = None }

let arm t =
  t.calls <- 0;
  t.armed <- true

let disarm t = t.armed <- false
let attach t inst = t.target <- Some inst
let injected t = t.injected

let action_name = function Trap -> "trap" | Corrupt -> "corrupt" | Burn -> "burn"

let describe t =
  let evs =
    Array.to_list t.events
    |> List.map (fun e -> Printf.sprintf "%s@%d" (action_name e.action) e.at)
    |> String.concat ","
  in
  Printf.sprintf "faults(seed=%d,index=%d):%s" t.seed t.index evs

(* corrupt-but-well-typed results: deterministic per (plan, call index,
   result position), drawn from the plan's own stream so replays agree *)
let corrupt_results t ~(call : int) (results : Types.value_type list) : Value.t list =
  let rng = Rng.for_case ~seed:t.seed ~index:(index_base + t.index + (call * 7919)) in
  List.map
    (fun (ty : Types.value_type) ->
       match ty with
       | Types.I32T -> Value.I32 (Rng.i32_const rng)
       | Types.I64T -> Value.I64 (Rng.i64_const rng)
       | Types.F32T -> Value.F32 (Rng.int32 rng)
       | Types.F64T -> Value.F64 (Int64.float_of_bits (Rng.bits64 rng)))
    results

let event_at t k =
  (* events is tiny (<= 3); linear scan *)
  let rec go i =
    if i >= Array.length t.events then None
    else if t.events.(i).at = k then Some t.events.(i).action
    else if t.events.(i).at > k then None
    else go (i + 1)
  in
  go 0

(* expire the governor's deadline when one is attached (the run dies
   with ["deadline-exceeded"] at the next batch boundary — deterministic,
   no clock involved); zero the fuel otherwise so the run still
   terminates, as plain exhaustion *)
let burn t =
  match t.target with
  | None -> ()
  | Some inst ->
    (match inst.Interp.inst_gov with
     | Some g -> Governor.expire g
     | None -> inst.Interp.fuel <- 0)

(* the k-th armed call: [None] runs the real function, [Some rs]
   returns [rs] in its place; a trap raises *)
let intercept t (h : Interp.host_func) =
  if not t.armed then None
  else begin
    let k = t.calls in
    t.calls <- k + 1;
    match event_at t k with
    | None -> None
    | Some Trap ->
      t.injected <- t.injected + 1;
      raise (Value.Trap "injected host fault")
    | Some Corrupt ->
      t.injected <- t.injected + 1;
      Some (corrupt_results t ~call:k h.Interp.h_type.Types.results)
    | Some Burn ->
      t.injected <- t.injected + 1;
      burn t;
      None
  end

(* both entries are wrapped: the array ABI, and the sites tier 1 binds,
   so a plan fires at the same call on every tier; a counted site becomes
   an intercepting entry, which tier 1 does not merge with its
   neighbours *)
let wrap t (h : Interp.host_func) : Interp.host_func =
  let fn args off =
    match intercept t h with None -> h.Interp.h_fn args off | Some rs -> rs
  in
  let bind (b : Interp.site_binder) =
    { Interp.bind =
        (fun site ->
           Option.map
             (fun entry ->
                let run =
                  match entry with
                  | Interp.Site_entry f -> f
                  | Site_count count -> fun _ -> count ()
                in
                Interp.Site_entry (fun e -> match intercept t h with None -> run e | Some _ -> ()))
             (b.Interp.bind site)) }
  in
  { h with Interp.h_fn = fn; h_bind = Option.map bind h.Interp.h_bind }
