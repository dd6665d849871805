(** Span recording for the traced run. Spans are opened only by the
    benchmark's own code, around its calls into the system; nothing is
    traced inside the libraries. A span is a [Sample] (one benchmark
    sample), a [Leg] (one timed leg of a sample) or a [Call] (one call
    into a layer's public functions). Only [Call] self time counts as
    attributed to a layer; the self time of samples and legs is the
    benchmark's own unattributed work. *)

type kind = Sample | Leg | Call

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  sample : int;
  leg : string;  (** name of the enclosing leg, [""] outside one *)
  name : string;
  kind : kind;
  start_ns : int64;
  end_ns : int64;
}

type t = {
  mutable on : bool;
  mutable next : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable closed : span list;  (** most recent first *)
  mutable sample_id : int;
}

let create () = { on = false; next = 0; stack = []; closed = []; sample_id = -1 }

let set_on t on = t.on <- on

let record t kind name f =
  if not t.on then f ()
  else begin
    let parent, leg = match t.stack with p :: _ -> (p.id, p.leg) | [] -> (-1, "") in
    if kind = Sample then t.sample_id <- t.next;
    let open_ =
      { id = t.next; parent; sample = t.sample_id; leg = (if kind = Leg then name else leg);
        name; kind; start_ns = Obs.Clock.now_ns (); end_ns = 0L }
    in
    t.next <- t.next + 1;
    t.stack <- open_ :: t.stack;
    let close () =
      t.stack <- List.tl t.stack;
      t.closed <- { open_ with end_ns = Obs.Clock.now_ns () } :: t.closed
    in
    Fun.protect ~finally:close f
  end

let sample t f = record t Sample "sample" f

let call t name f = record t Call name f

(** A leg is timed whether or not spans are on: its lap feeds the
    end-to-end metrics. It starts with the garbage collector's pending
    work done (a [gc] call, untimed by the lap), so that no leg pays for
    the garbage of the one before it, whichever order the legs run in. *)
let leg t name f =
  call t "gc" Gc.full_major;
  record t Leg name (fun () -> Stats.timed f)

(** Closed spans in the order they were opened. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let clear t = t.closed <- []

let dur_ns s = Int64.sub s.end_ns s.start_ns

(** [(span, self seconds)] for every span: its duration minus the part
    of it that its children cover. Children are clipped to the parent
    and overlapping children are counted once. *)
let self_times (spans : span list) =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun p ->
       let kids =
         Hashtbl.find_all children p.id
         |> List.map (fun c -> (max c.start_ns p.start_ns, min c.end_ns p.end_ns))
         |> List.filter (fun (a, b) -> b > a)
         |> List.sort compare
       in
       let covered, _ =
         List.fold_left
           (fun (acc, reach) (a, b) ->
              let a = max a reach in
              if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
           (0L, Int64.min_int) kids
       in
       (p, Obs.Clock.ns_to_s (Int64.sub (dur_ns p) covered)))
    spans

(** Chrome trace-event JSON (["ph": "X"] complete events, microseconds
    from the first span). *)
let to_chrome (spans : span list) =
  let t0 = List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int spans in
  let us ns = Obs.Clock.ns_to_us (Int64.sub ns t0) in
  let kind_name = function Sample -> "sample" | Leg -> "leg" | Call -> "call" in
  let ev s =
    Json.Obj
      [ ("name", Json.Str s.name); ("cat", Json.Str (kind_name s.kind)); ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start_ns)); ("dur", Json.Num (Obs.Clock.ns_to_us (dur_ns s)));
        ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
        ("args",
         Json.Obj
           [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent));
             ("sample", Json.Num (float_of_int s.sample)); ("leg", Json.Str s.leg) ]) ]
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.map ev spans)) ])
