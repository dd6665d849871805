type spec = {
  sp_groups : string list;
  sp_func : int option;
  sp_loc : (int * int) option;
  sp_nth : int;
}

type entry = {
  e_id : int;
  e_spec : spec;
  mutable e_active : bool;
  mutable e_hits : int;
  mutable e_fired : int;
}

type t = {
  p_entries : entry list ref;  (** attach order; also read by the fired-counter source *)
  mutable p_next_id : int;
  c_attached : Metrics.counter;
  c_fired : Metrics.counter;
  c_detached : Metrics.counter;
}

(* Delivered events are counted in the entries' plain [e_fired] fields
   only; [wasabi_probe_fired_total] pulls their sum whenever it is read,
   and folds it in for good once the manager is collected. The source
   closes over the entry list, not the manager, so the registry does not
   keep the manager alive. *)
let create ?registry () =
  let entries = ref [] in
  (* registration order fixes the exposition order *)
  let c_detached =
    Metrics.counter ?registry "wasabi_probe_detached_total"
      ~help:"Probe entries detached from the engine-probe backend"
  in
  let c_fired =
    Metrics.counter ?registry "wasabi_probe_fired_total"
      ~help:"Hook events delivered by engine-side probes"
  in
  let c_attached =
    Metrics.counter ?registry "wasabi_probe_attached_total"
      ~help:"Probe entries attached to the engine-probe backend"
  in
  let release =
    Metrics.pull c_fired (fun () ->
      float_of_int (List.fold_left (fun n e -> n + e.e_fired) 0 !entries))
  in
  let t = { p_entries = entries; p_next_id = 0; c_attached; c_fired; c_detached } in
  Gc.finalise (fun _ -> release ()) t;
  t

(** {1 Spec syntax} *)

let parse_spec s : (spec, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let s = String.trim s in
  if s = "" then err "empty probe spec"
  else begin
    match String.split_on_char '@' s with
    | [] -> err "empty probe spec"
    | groups_part :: preds ->
      let groups =
        match String.trim groups_part with
        | "" | "all" -> Ok []
        | g ->
          let names = List.map String.trim (String.split_on_char ',' g) in
          if List.exists (fun n -> n = "") names then Error "empty group name"
          else Ok names
      in
      (match groups with
       | Error m -> Error m
       | Ok sp_groups ->
         let rec go acc = function
           | [] -> Ok acc
           | p :: rest ->
             (match String.index_opt p '=' with
              | None -> err "predicate %S is not key=value" p
              | Some eq ->
                let key = String.trim (String.sub p 0 eq) in
                let v = String.trim (String.sub p (eq + 1) (String.length p - eq - 1)) in
                (match key with
                 | "func" ->
                   (match int_of_string_opt v with
                    | Some n when n >= 0 -> go { acc with sp_func = Some n } rest
                    | _ -> err "@func expects a non-negative integer, got %S" v)
                 | "nth" ->
                   (match int_of_string_opt v with
                    | Some k when k >= 1 -> go { acc with sp_nth = k } rest
                    | _ -> err "@nth expects an integer >= 1, got %S" v)
                 | "loc" ->
                   (match String.split_on_char ':' v with
                    | [ f; i ] ->
                      (match int_of_string_opt f, int_of_string_opt i with
                       | Some f, Some i when f >= 0 ->
                         go { acc with sp_loc = Some (f, i) } rest
                       | _ -> err "@loc expects F:I integers, got %S" v)
                    | _ -> err "@loc expects F:I, got %S" v)
                 | k -> err "unknown probe predicate %S" k))
         in
         go { sp_groups; sp_func = None; sp_loc = None; sp_nth = 1 } preds)
  end

let spec_to_string sp =
  let b = Buffer.create 32 in
  Buffer.add_string b
    (match sp.sp_groups with [] -> "all" | gs -> String.concat "," gs);
  (match sp.sp_func with
   | Some n -> Buffer.add_string b (Printf.sprintf "@func=%d" n)
   | None -> ());
  (match sp.sp_loc with
   | Some (f, i) -> Buffer.add_string b (Printf.sprintf "@loc=%d:%d" f i)
   | None -> ());
  if sp.sp_nth > 1 then Buffer.add_string b (Printf.sprintf "@nth=%d" sp.sp_nth);
  Buffer.contents b

(** {1 Registry} *)

let attach t spec =
  Span.with_ "probe.attach" (fun () ->
    let e =
      { e_id = t.p_next_id; e_spec = spec; e_active = true; e_hits = 0; e_fired = 0 }
    in
    t.p_next_id <- t.p_next_id + 1;
    t.p_entries := !(t.p_entries) @ [ e ];
    Metrics.inc t.c_attached;
    e)

let detach t e =
  Span.with_ "probe.detach" (fun () ->
    if e.e_active then begin
      e.e_active <- false;
      Metrics.inc t.c_detached
    end)

let detach_all t = List.iter (fun e -> detach t e) !(t.p_entries)

let entries t = List.filter (fun e -> e.e_active) !(t.p_entries)
let all_entries t = !(t.p_entries)

(** {1 Predicates} *)

let site_matches sp ~group ~func ~instr =
  (match sp.sp_groups with [] -> true | gs -> List.mem group gs)
  && (match sp.sp_func with None -> true | Some f -> f = func)
  && (match sp.sp_loc with None -> true | Some (f, i) -> f = func && i = instr)

let should_fire e =
  e.e_active
  && begin
    e.e_hits <- e.e_hits + 1;
    if e.e_hits >= e.e_spec.sp_nth then begin
      e.e_fired <- e.e_fired + 1;
      true
    end
    else false
  end

let gate = function
  | [ e ] when e.e_spec.sp_nth = 1 ->
    (* the common case: one unconditional entry is a flag test *)
    fun () ->
      e.e_active
      && begin
        e.e_hits <- e.e_hits + 1;
        e.e_fired <- e.e_fired + 1;
        true
      end
  | [ e ] -> fun () -> should_fire e
  | es ->
    (* every matching entry counts the occurrence (no short-circuit): the
       [@nth] counters stay exact even when another entry already fires
       the event *)
    fun () -> List.fold_left (fun acc e -> should_fire e || acc) false es

let attached_total t = int_of_float (Metrics.counter_value t.c_attached)
let fired_total t = int_of_float (Metrics.counter_value t.c_fired)
let detached_total t = int_of_float (Metrics.counter_value t.c_detached)
