(** Dynamic call graph analysis (paper, Table 4, 18 LoC; [bench table4]
    counts this file at 57 lines, 7 of them the site binding): records
    the edges (caller function, callee function), including indirect
    calls — resolved to the actually called function by the Wasabi
    runtime — and calls between functions that are neither imported nor
    exported. Useful for finding dynamically dead code or
    reverse-engineering. Uses only the [call_pre] hook.

    A direct call's edge is a static fact of its site: the site binds a
    closure that adds the edge the first time it fires, and no argument
    is decoded. An indirect call keeps the callback, which reads the
    resolved callee. *)

open Wasabi

module Edge_set = Set.Make (struct
  type t = int * int
  let compare (a, b) (c, d) = match Int.compare a c with 0 -> Int.compare b d | n -> n
end)

type t = {
  mutable edges : Edge_set.t;
  mutable indirect_edges : Edge_set.t;
}

let create () = { edges = Edge_set.empty; indirect_edges = Edge_set.empty }

let groups = Hook.of_list [ Hook.G_call ]

let analysis (t : t) : Analysis.t =
  {
    Analysis.default with
    call_pre =
      (fun loc callee _args table_idx ->
         let edge = (loc.Location.func, callee) in
         t.edges <- Edge_set.add edge t.edges;
         if table_idx <> None then t.indirect_edges <- Edge_set.add edge t.indirect_edges);
    site =
      (fun s ->
         match s.spec, s.callee with
         | Hook.S_call_pre _, Some f ->
           (* an edge is never removed: adding it once is adding it always *)
           Some (Analysis.once (fun () -> t.edges <- Edge_set.add (s.loc.func, f) t.edges))
         | S_call_pre _, None -> None
         | _ -> Some ignore);
  }

let edges t = Edge_set.elements t.edges
let has_edge t caller callee = Edge_set.mem (caller, callee) t.edges
let num_edges t = Edge_set.cardinal t.edges

(** Functions reachable from [roots] in the recorded graph. *)
let reachable t roots =
  let adj = Hashtbl.create 16 in
  Edge_set.iter
    (fun (a, b) -> Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a)))
    t.edges;
  let seen = Hashtbl.create 16 in
  let rec visit f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      List.iter visit (Option.value ~default:[] (Hashtbl.find_opt adj f))
    end
  in
  List.iter visit roots;
  Hashtbl.fold (fun f () acc -> f :: acc) seen [] |> List.sort Int.compare

(** Graphviz dot rendering; [name] labels functions (e.g. from
    {!Wasabi.Metadata.func_name}). *)
let to_dot ?(name = fun i -> Printf.sprintf "f%d" i) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph calls {\n";
  Edge_set.iter
    (fun (a, b) ->
       let style = if Edge_set.mem (a, b) t.indirect_edges then " [style=dashed]" else "" in
       Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\"%s;\n" (name a) (name b) style))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let report t =
  Printf.sprintf "call graph: %d edges (%d from indirect calls)\n" (num_edges t)
    (Edge_set.cardinal t.indirect_edges)
