(** A process-wide registry of named counters, gauges and log-bucketed
    histograms, with Prometheus text and JSON exposition.

    A metric is identified by its name plus its label set; registering the
    same (name, labels) pair twice returns the existing metric, so call
    sites can look metrics up on the hot path without threading handles
    around. Every operation is domain-safe: registration is mutex-guarded,
    counters and gauges are atomics (increments from concurrent fuzz jobs
    or serve workers never lose updates), and histogram observations take
    a per-histogram mutex — so one registry can absorb the whole domain
    pool's accounting and still expose exact totals.

    Exposition is deterministic: metrics appear in first-registration
    order, grouped into families by name, which lets tests compare the
    serialized forms against golden files byte for byte. *)

type labels = (string * string) list

type histogram = {
  h_bounds : float array;  (** inclusive upper bounds, without +Inf *)
  h_buckets : int array;  (** length [Array.length h_bounds + 1]; last is +Inf *)
  mutable h_sum : float;
  mutable h_count : int;
  h_lock : Mutex.t;  (** guards buckets/sum/count against concurrent observers *)
}

(** A counter's value is its atomic total plus whatever its pull
    sources report. [c_pulled] pairs the final values of released
    sources with the live ones and is swapped as a whole, so a read
    never counts a source both as folded and as live. *)
type counter = {
  c_total : float Atomic.t;
  c_pulled : (float * (unit -> float) list) Atomic.t;
}

type kind =
  | Counter of counter
  | Gauge of float Atomic.t
  | Histogram of histogram

type metric = {
  m_name : string;
  m_help : string;
  m_labels : labels;
  m_kind : kind;
}

type registry = {
  tbl : (string * labels, metric) Hashtbl.t;
  mutable order : metric list;  (** reversed registration order *)
  lock : Mutex.t;
}

let create () = { tbl = Hashtbl.create 32; order = []; lock = Mutex.create () }

(** The default process-wide registry. *)
let default = create ()

(** Log-spaced seconds buckets: 1 µs doubling up to ~67 s (27 bounds).
    Doubling buckets keep the relative quantization error bounded at every
    time scale, from a hook dispatch to a whole fuzz campaign. *)
let default_time_bounds =
  Array.init 27 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

type gauge = float Atomic.t

let register reg ~name ~help ~labels ~make ~cast =
  Mutex.lock reg.lock;
  let m =
    match Hashtbl.find_opt reg.tbl (name, labels) with
    | Some m -> m
    | None ->
      let m = { m_name = name; m_help = help; m_labels = labels; m_kind = make () } in
      Hashtbl.add reg.tbl (name, labels) m;
      reg.order <- m :: reg.order;
      m
  in
  Mutex.unlock reg.lock;
  cast m.m_kind

let counter ?(registry = default) ?(help = "") ?(labels = []) name : counter =
  register registry ~name ~help ~labels
    ~make:(fun () -> Counter { c_total = Atomic.make 0.0; c_pulled = Atomic.make (0.0, []) })
    ~cast:(function
      | Counter c -> c
      | _ -> invalid_arg (name ^ ": registered with a different metric type"))

let gauge ?(registry = default) ?(help = "") ?(labels = []) name : gauge =
  register registry ~name ~help ~labels
    ~make:(fun () -> Gauge (Atomic.make 0.0))
    ~cast:(function
      | Gauge g -> g
      | _ -> invalid_arg (name ^ ": registered with a different metric type"))

let histogram ?(registry = default) ?(help = "") ?(labels = [])
    ?(bounds = default_time_bounds) name : histogram =
  register registry ~name ~help ~labels
    ~make:(fun () ->
      Histogram
        { h_bounds = bounds;
          h_buckets = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.0;
          h_count = 0;
          h_lock = Mutex.create () })
    ~cast:(function
      | Histogram h -> h
      | _ -> invalid_arg (name ^ ": registered with a different metric type"))

(* lock-free read-modify-write: CAS loop over the boxed value *)
let rec update (a : 'a Atomic.t) f =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (f cur)) then update a f

let inc ?(by = 1.0) (c : counter) = update c.c_total (fun cur -> cur +. by)

let counter_value (c : counter) =
  let folded, live = Atomic.get c.c_pulled in
  List.fold_left (fun acc f -> acc +. f ()) (Atomic.get c.c_total +. folded) live

let pull (c : counter) (f : unit -> float) =
  update c.c_pulled (fun (folded, live) -> (folded, f :: live));
  fun () ->
    update c.c_pulled (fun ((folded, live) as cur) ->
      if List.memq f live then (folded +. f (), List.filter (( != ) f) live) else cur)

let set (g : gauge) v = Atomic.set g v
let gauge_value (g : gauge) = Atomic.get g

(** Index of the first bound >= v (binary search over few elements would
    not pay off; bucket arrays are short). *)
let observe (h : histogram) v =
  let n = Array.length h.h_bounds in
  let i = ref 0 in
  while !i < n && v > h.h_bounds.(!i) do
    incr i
  done;
  Mutex.lock h.h_lock;
  h.h_buckets.(!i) <- h.h_buckets.(!i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_lock

let histogram_count (h : histogram) =
  Mutex.lock h.h_lock;
  let c = h.h_count in
  Mutex.unlock h.h_lock;
  c

let histogram_sum (h : histogram) =
  Mutex.lock h.h_lock;
  let s = h.h_sum in
  Mutex.unlock h.h_lock;
  s

let metrics reg = List.rev reg.order

(** {1 Exposition} *)

(** Prometheus / JSON shared number formatting: integral values render
    without a fractional part, everything else with enough digits to
    round-trip reasonably. *)
let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Prometheus label values escape backslash, double quote and newline. *)
let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '\\' -> Buffer.add_string b "\\\\"
       | '"' -> Buffer.add_string b "\\\""
       | '\n' -> Buffer.add_string b "\\n"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
    ^ "}"

(* labels plus an extra le="..." pair, for histogram bucket lines *)
let prom_labels_le labels le =
  let le_pair = ("le", le) in
  prom_labels (labels @ [ le_pair ])

let type_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(** Prometheus text exposition format. Metrics with the same name form one
    family: a single [# HELP]/[# TYPE] header (the help of the first
    registered member wins) followed by every labeled instance. *)
let to_prometheus reg =
  let b = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  let all = metrics reg in
  List.iter
    (fun m ->
       if not (Hashtbl.mem seen m.m_name) then begin
         Hashtbl.add seen m.m_name ();
         let family = List.filter (fun m' -> m'.m_name = m.m_name) all in
         if m.m_help <> "" then
           Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" m.m_name (prom_escape m.m_help));
         Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" m.m_name (type_name m.m_kind));
         List.iter
           (fun m' ->
              let scalar v =
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" m'.m_name (prom_labels m'.m_labels) (fmt_num v))
              in
              match m'.m_kind with
              | Counter c -> scalar (counter_value c)
              | Gauge g -> scalar (Atomic.get g)
              | Histogram h ->
                Mutex.lock h.h_lock;
                let buckets = Array.copy h.h_buckets in
                let sum = h.h_sum and count = h.h_count in
                Mutex.unlock h.h_lock;
                let cum = ref 0 in
                Array.iteri
                  (fun i c ->
                     cum := !cum + c;
                     let le =
                       if i < Array.length h.h_bounds then fmt_num h.h_bounds.(i) else "+Inf"
                     in
                     Buffer.add_string b
                       (Printf.sprintf "%s_bucket%s %d\n" m'.m_name
                          (prom_labels_le m'.m_labels le) !cum))
                  buckets;
                Buffer.add_string b
                  (Printf.sprintf "%s_sum%s %s\n" m'.m_name (prom_labels m'.m_labels)
                     (fmt_num sum));
                Buffer.add_string b
                  (Printf.sprintf "%s_count%s %d\n" m'.m_name (prom_labels m'.m_labels)
                     count))
           family
       end)
    all;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_labels labels =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)) labels)
  ^ "}"

(** JSON exposition: a [{"metrics": [...]}] document, one object per
    metric in registration order. *)
let to_json reg =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"metrics\": [";
  List.iteri
    (fun i m ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b "\n    {";
       Buffer.add_string b
         (Printf.sprintf "\"name\": \"%s\", \"type\": \"%s\"" (json_escape m.m_name)
            (type_name m.m_kind));
       if m.m_help <> "" then
         Buffer.add_string b (Printf.sprintf ", \"help\": \"%s\"" (json_escape m.m_help));
       Buffer.add_string b (Printf.sprintf ", \"labels\": %s" (json_labels m.m_labels));
       let scalar v = Buffer.add_string b (Printf.sprintf ", \"value\": %s" (fmt_num v)) in
       (match m.m_kind with
        | Counter c -> scalar (counter_value c)
        | Gauge g -> scalar (Atomic.get g)
        | Histogram h ->
          Mutex.lock h.h_lock;
          let buckets = Array.copy h.h_buckets in
          let sum = h.h_sum and count = h.h_count in
          Mutex.unlock h.h_lock;
          Buffer.add_string b
            (Printf.sprintf ", \"count\": %d, \"sum\": %s, \"buckets\": [" count
               (fmt_num sum));
          Array.iteri
            (fun i c ->
               if i > 0 then Buffer.add_string b ", ";
               let le =
                 if i < Array.length h.h_bounds then fmt_num h.h_bounds.(i) else "\"+Inf\""
               in
               Buffer.add_string b (Printf.sprintf "{\"le\": %s, \"count\": %d}" le c))
            buckets;
          Buffer.add_char b ']');
       Buffer.add_char b '}')
    (metrics reg);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
