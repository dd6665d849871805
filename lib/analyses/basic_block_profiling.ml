(** Basic block profiling (paper, Table 4, 9 LoC): counts how often every
    function, block, and loop is entered — the classic tool for finding
    "hot" code. Uses only the [begin] hook. *)

open Wasabi

type t = {
  counts : (Location.t * Hook.block_kind, int ref) Hashtbl.t;
}

let create () = { counts = Hashtbl.create 64 }

let groups = Hook.of_list [ Hook.G_begin ]

(* created at zero: a [begin] site resolves its cell when it binds *)
let cell t key =
  try Hashtbl.find t.counts key
  with Not_found -> let c = ref 0 in Hashtbl.add t.counts key c; c

let analysis (t : t) : Analysis.t =
  {
    Analysis.default with
    begin_ = (fun loc kind -> incr (cell t (loc, kind)));
    site =
      (fun s ->
         match s.spec with
         | Hook.S_begin kind -> let c = cell t (s.loc, kind) in Some (fun () -> incr c)
         | _ -> Some ignore);
  }

let count t loc kind = Option.fold ~none:0 ~some:( ! ) (Hashtbl.find_opt t.counts (loc, kind))

(** Blocks sorted by execution count, hottest first, ties by location;
    blocks that never ran are left out. *)
let hottest t =
  Hashtbl.fold (fun k v acc -> if !v > 0 then (k, !v) :: acc else acc) t.counts []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then Int.compare b a else compare ka kb)

let report ?(limit = 10) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "basic block profile (hottest first):\n";
  List.iteri
    (fun i ((loc, kind), n) ->
       if i < limit then
         Buffer.add_string buf
           (Printf.sprintf "  %-10s %-8s %8d\n" (Location.to_string loc)
              (Hook.block_kind_name kind) n))
    (hottest t);
  Buffer.contents buf
