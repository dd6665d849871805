(** Order statistics and the benchmark's one timing primitive. *)

(** Quartiles [(p25, median, p75)] by the exclusive method of Python's
    [statistics.quantiles(xs, n=4)], so the benchmark's spreads read the
    same as any script that checks them. The median is the mean of the
    two middle elements of an even-length list. A one-element list is
    its own quartiles; the empty list gives NaNs. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type lap = {
  wall : float;  (** seconds on the monotonic clock *)
  cpu : float;  (** process CPU seconds, all domains *)
}

let zero = { wall = 0.0; cpu = 0.0 }
let add a b = { wall = a.wall +. b.wall; cpu = a.cpu +. b.cpu }

(** [timed f] runs [f ()] and returns its result with the wall time
    ({!Obs.Clock}) and process CPU time it took. Every leg the benchmark
    times goes through this function; spans read the same clock. *)
let timed f =
  let c0 = Sys.time () in
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  let t1 = Obs.Clock.now_ns () in
  let c1 = Sys.time () in
  (r, { wall = Obs.Clock.ns_to_s (Int64.sub t1 t0); cpu = c1 -. c0 })

(** Words allocated by this domain so far (minor + major − promoted). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

external max_rss_kb : unit -> int = "bench_e2e_max_rss_kb"
(** Peak resident set size of this process so far, in KiB (Linux
    [getrusage]); -1 when unavailable. *)
