(** Instrumenter correctness: instrumented modules validate, behave like
    the original (RQ2), and deliver the right events to the analysis API. *)

open Wasm
open Wasm.Ast
open Helpers
module B = Wasm.Builder
module W = Wasabi

let case name f = Alcotest.test_case name `Quick f

(* A module exercising many instruction kinds: arithmetic, locals,
   globals, memory, blocks, loops, branches, calls, i64, select, drop. *)
let rich_module () =
  let bld = B.create () in
  B.add_memory bld ~min_pages:1 ~max_pages:None;
  let g = B.add_global bld ~ty:Types.I32T ~mutable_:true ~init:(Value.I32 0l) in
  let helper = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 3; B.i32_mul ]
  in
  let i64f = B.add_func bld ~params:[ Types.I64T ] ~results:[ Types.I64T ] ~locals:[]
      ~body:[ B.local_get 0; B.i64 0x1_0000_0001L; B.i64_mul ]
  in
  (* main: mixes everything; returns an i32 summary *)
  let body =
    (* store/load roundtrip *)
    [ B.i32 16; B.local_get 0; B.i32_store (); B.i32 16; B.i32_load () ]
    (* call helper *)
    @ [ Call helper ]
    (* loop: add 1..3 *)
    @ [ B.local_set 1; B.i32 3; B.local_set 2 ]
    @ B.block
        (B.loop
           ([ B.local_get 2; B.i32_eqz; BrIf 1 ]
            @ [ B.local_get 1; B.local_get 2; B.i32_add; B.local_set 1 ]
            @ [ B.local_get 2; B.i32 1; B.i32_sub; B.local_set 2; Br 0 ]))
    (* if/else with select and drop *)
    @ [ B.local_get 1; B.i32 10; B.i32_gt_s ]
    @ B.if_ ~result:Types.I32T
        ~then_:[ B.local_get 1; B.i32 100; B.i32 1; Select ]
        ~else_:[ B.i32 7; B.f64 3.5; Drop ]
        ()
    (* i64 round trip through a call *)
    @ [ B.i64 5L; Call i64f; Convert I32WrapI64; B.i32_add ]
    (* global update *)
    @ [ B.global_get g; B.i32_add; B.global_set g; B.global_get g ]
  in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ]
      ~locals:[ Types.I32T; Types.I32T ] ~body
  in
  B.export_func bld ~name:"f" f;
  B.build bld

let br_table_module () =
  let bld = B.create () in
  let body =
    [ Block (Some Types.I32T);
      Block None;
      Block None;
      Block None;
      B.local_get 0;
      BrTable ([ 0; 1; 2 ], 2);
      End;
      B.i32 100; Br 2;
      End;
      B.i32 200; Br 1;
      End;
      B.i32 300;
      End ]
  in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] ~body in
  B.export_func bld ~name:"f" f;
  B.build bld

let instrument ?groups m =
  Validate.validate_module m;
  W.Instrument.instrument ?groups m

let run_instrumented ?analysis res name args =
  let analysis = Option.value analysis ~default:W.Analysis.default in
  let inst, _rt = W.Runtime.instantiate res analysis in
  Interp.invoke_export inst name args

(* The hand-written event expectations hold for both backends: the
   rewriter ([Aot]) and engine probes of the same groups attached to the
   original module ([Probe]). They pin the event plan both lower. *)
type backend = Aot | Probe

let on backend label = (match backend with Aot -> "aot: " | Probe -> "probe: ") ^ label

let run backend ~groups ?(imports = []) ?(analysis = W.Analysis.default) m name args =
  match backend with
  | Aot ->
    let res = instrument ~groups m in
    let inst, _ = W.Runtime.instantiate ~extra_imports:imports res analysis in
    Interp.invoke_export inst name args
  | Probe ->
    Validate.validate_module m;
    let inst = Interp.instantiate ~imports m in
    let c = W.Runtime.Probe.create ~registry:(Obs.Metrics.create ()) inst analysis in
    let sp_groups = List.map W.Hook.group_name (W.Hook.Group_set.elements groups) in
    ignore
      (W.Runtime.Probe.attach c { Obs.Probe.sp_groups; sp_func = None; sp_loc = None; sp_nth = 1 });
    Interp.invoke_export inst name args

let both test () =
  test Aot;
  test Probe

(* --- validation of instrumented output ------------------------------- *)

let test_instrumented_validates () =
  let m = rich_module () in
  let res = instrument m in
  Validate.validate_module res.W.Instrument.instrumented;
  (* also after an encode/decode round trip *)
  let bin = Encode.encode res.W.Instrument.instrumented in
  Validate.validate_module (Decode.decode bin)

let test_br_table_validates () =
  let res = instrument (br_table_module ()) in
  Validate.validate_module res.W.Instrument.instrumented

let test_selective_validates () =
  let m = rich_module () in
  List.iter
    (fun g ->
       let res = instrument ~groups:(W.Hook.of_list [ g ]) m in
       try Validate.validate_module res.W.Instrument.instrumented
       with Validate.Invalid msg ->
         Alcotest.failf "group %s: invalid instrumented module: %s" (W.Hook.group_name g) msg)
    W.Hook.all_groups

(* --- faithfulness (RQ2) ---------------------------------------------- *)

let test_faithful_rich () =
  let m = rich_module () in
  let res = instrument m in
  List.iter
    (fun x ->
       let expected = Interp.invoke_export (Interp.instantiate ~imports:[] m) "f" [ i32 x ] in
       let actual = run_instrumented res "f" [ i32 x ] in
       check_values (Printf.sprintf "f(%d)" x) expected actual)
    [ 0; 1; 5; 42; -3 ]

let test_faithful_br_table () =
  let m = br_table_module () in
  let res = instrument m in
  List.iter
    (fun x ->
       let expected = Interp.invoke_export (Interp.instantiate ~imports:[] m) "f" [ i32 x ] in
       let actual = run_instrumented res "f" [ i32 x ] in
       check_values (Printf.sprintf "f(%d)" x) expected actual)
    [ 0; 1; 2; 3; 17 ]

let test_faithful_selective () =
  let m = rich_module () in
  let expected = Interp.invoke_export (Interp.instantiate ~imports:[] m) "f" [ i32 6 ] in
  List.iter
    (fun g ->
       let res = instrument ~groups:(W.Hook.of_list [ g ]) m in
       let actual = run_instrumented res "f" [ i32 6 ] in
       check_values (W.Hook.group_name g) expected actual)
    W.Hook.all_groups

let test_faithful_memory () =
  (* paper: Wasabi preserves the program's memory behaviour exactly *)
  let m = rich_module () in
  let res = instrument m in
  let inst0 = Interp.instantiate ~imports:[] m in
  ignore (Interp.invoke_export inst0 "f" [ i32 9 ]);
  let inst1, _ = W.Runtime.instantiate res W.Analysis.default in
  ignore (Interp.invoke_export inst1 "f" [ i32 9 ]);
  let bytes inst = Memory.to_string (Option.get inst.Interp.inst_memory) ~at:0 ~len:64 in
  Alcotest.(check string) "first 64 bytes of memory" (bytes inst0) (bytes inst1)

(* --- hook event delivery --------------------------------------------- *)

let events : string list ref = ref []
let record fmt = Printf.ksprintf (fun s -> events := s :: !events) fmt
let reset () = events := []
let got () = List.rev !events

let test_const_hook backend =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 7; B.i64 0x1_0000_0002L; Convert I32WrapI64; B.i32_add ]
  in
  let groups = W.Hook.of_list [ W.Hook.G_const ] in
  let analysis =
    { W.Analysis.default with const = (fun _ v -> record "const %s" (Value.to_string v)) }
  in
  ignore (run backend ~groups ~analysis m "f" []);
  Alcotest.(check (list string)) (on backend "const events")
    [ "const i32:7"; "const i64:4294967298" ] (got ())

let test_binary_hook backend =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 6; B.i32 7; B.i32_mul ]
  in
  let groups = W.Hook.of_list [ W.Hook.G_binary ] in
  let analysis =
    { W.Analysis.default with
      binary = (fun _ op a b r ->
        record "%s %s %s -> %s" op (Value.to_string a) (Value.to_string b) (Value.to_string r)) }
  in
  ignore (run backend ~groups ~analysis m "f" []);
  Alcotest.(check (list string)) (on backend "binary events") [ "i32.mul i32:6 i32:7 -> i32:42" ] (got ())

let test_call_hooks backend =
  reset ();
  let bld = B.create () in
  let g = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 1; B.i32_add ]
  in
  let f = B.add_func bld ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.i32 41; Call g ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  let groups = W.Hook.of_list [ W.Hook.G_call ] in
  let analysis =
    { W.Analysis.default with
      call_pre = (fun loc callee args ti ->
        record "pre %s -> func %d args [%s] indirect=%b" (W.Location.to_string loc) callee
          (String.concat ";" (List.map Value.to_string args))
          (ti <> None));
      call_post = (fun _ results ->
        record "post [%s]" (String.concat ";" (List.map Value.to_string results))) }
  in
  let r = run backend ~groups ~analysis m "f" [] in
  check_values (on backend "result") [ i32 42 ] r;
  Alcotest.(check (list string)) (on backend "call events")
    [ "pre 1:1 -> func 0 args [i32:41] indirect=false"; "post [i32:42]" ] (got ())

let test_indirect_call_resolution backend =
  reset ();
  let bld = B.create () in
  let host = B.import_func bld ~module_name:"env" ~name:"host"
      ~params:[ Types.I32T ] ~results:[ Types.I32T ]
  in
  let double = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 2; B.i32_mul ]
  in
  let square = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.local_get 0; B.i32_mul ]
  in
  B.add_table bld ~min_size:3 ~max_size:None;
  B.add_elem bld ~offset:0 ~funcs:[ double; square; host ];
  let ti = B.add_type bld (Types.func_type [ Types.I32T ] [ Types.I32T ]) in
  let f = B.add_func bld ~params:[ Types.I32T; Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 1; B.local_get 0; CallIndirect ti ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  let groups = W.Hook.of_list [ W.Hook.G_call ] in
  let analysis =
    { W.Analysis.default with
      call_pre = (fun _ callee _ ti ->
        record "pre func=%d table=%s" callee
          (match ti with Some i -> string_of_int i | None -> "-")) }
  in
  let imports =
    [ ( "env", "host",
        Interp.host_func ~name:"host" ~params:[ Types.I32T ] ~results:[ Types.I32T ]
          (function [ Value.I32 x ] -> [ Value.I32 (Int32.add x 1000l) ] | _ -> assert false) ) ]
  in
  let call slot = run backend ~groups ~imports ~analysis m "f" [ i32 slot; i32 5 ] in
  check_values (on backend "square(5)") [ i32 25 ] (call 1);
  check_values (on backend "host(5)") [ i32 1005 ] (call 2);
  (* table slots resolve to original indices: [square], and the import *)
  Alcotest.(check (list string)) (on backend "resolution")
    [ Printf.sprintf "pre func=%d table=1" square; Printf.sprintf "pre func=%d table=2" host ]
    (got ())

let test_begin_end_balanced backend =
  reset ();
  let m = rich_module () in
  let groups = W.Hook.of_list [ W.Hook.G_begin; W.Hook.G_end ] in
  let depth = ref 0 and max_depth = ref 0 and unbalanced = ref false in
  let analysis =
    { W.Analysis.default with
      begin_ = (fun _ _ -> incr depth; if !depth > !max_depth then max_depth := !depth);
      end_ = (fun _ _ _ -> decr depth; if !depth < 0 then unbalanced := true) }
  in
  ignore (run backend ~groups ~analysis m "f" [ i32 4 ]);
  Alcotest.(check bool) (on backend "never negative") false !unbalanced;
  Alcotest.(check int) (on backend "balanced at exit") 0 !depth;
  Alcotest.(check bool) (on backend "saw nesting") true (!max_depth >= 3)

let test_branch_resolution backend =
  reset ();
  (* block; loop; br_if 1 -> resolved target is the instruction after the
     block's end *)
  let body =
    [ Block None;  (* 0 *)
      Loop None;  (* 1 *)
      B.local_get 0;  (* 2 *)
      BrIf 1;  (* 3 -> resolved to 7 *)
      Br 0;  (* 4 -> resolved to 2 (loop header body) *)
      End;  (* 5 *)
      End;  (* 6 *)
      B.i32 1 ]
  in
  let m = single_func ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] body in
  let groups = W.Hook.of_list [ W.Hook.G_br; W.Hook.G_br_if ] in
  let analysis =
    { W.Analysis.default with
      br = (fun loc t ->
        record "br at %s label %d -> %s" (W.Location.to_string loc) t.W.Metadata.label
          (W.Location.to_string t.W.Metadata.target_loc));
      br_if = (fun loc t cond ->
        record "br_if at %s label %d -> %s taken=%b" (W.Location.to_string loc)
          t.W.Metadata.label (W.Location.to_string t.W.Metadata.target_loc) cond) }
  in
  ignore (run backend ~groups ~analysis m "f" [ i32 1 ]);
  Alcotest.(check (list string)) (on backend "resolved targets")
    [ "br_if at 0:3 label 1 -> 0:7 taken=true" ] (got ());
  reset ();
  (* a counted loop: not taken once, loops back once, then exits *)
  let body =
    [ Block None;  (* 0 *)
      Loop None;  (* 1 *)
      B.local_get 0; Test (IEqz S32);
      BrIf 1;  (* 4 -> resolved to 12 *)
      B.local_get 0; B.i32 1; B.i32_sub; B.local_set 0;
      Br 0;  (* 9 -> resolved to 2 *)
      End;  (* 10 *)
      End;  (* 11 *)
      B.i32 1 ]
  in
  let m = single_func ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] body in
  ignore (run backend ~groups ~analysis m "f" [ i32 1 ]);
  Alcotest.(check (list string)) (on backend "loop events")
    [ "br_if at 0:4 label 1 -> 0:12 taken=false";
      "br at 0:9 label 0 -> 0:2";
      "br_if at 0:4 label 1 -> 0:12 taken=true" ]
    (got ())

let test_end_hooks_on_branch backend =
  reset ();
  (* br 1 out of a loop nested in a block: end hooks for loop and block
     must fire (Table 3, row 5) *)
  let body =
    [ Block None;  (* 0 *)
      Loop None;  (* 1 *)
      Br 1;  (* 2 *)
      End;  (* 3 *)
      End;  (* 4 *)
      B.i32 9 ]
  in
  let m = single_func ~params:[] ~results:[ Types.I32T ] ~locals:[] body in
  let groups = W.Hook.of_list [ W.Hook.G_begin; W.Hook.G_end ] in
  let analysis =
    { W.Analysis.default with
      begin_ = (fun loc k -> record "begin %s %s" (W.Hook.block_kind_name k) (W.Location.to_string loc));
      end_ = (fun loc k b ->
        record "end %s %s (begin %s)" (W.Hook.block_kind_name k) (W.Location.to_string loc)
          (W.Location.to_string b)) }
  in
  ignore (run backend ~groups ~analysis m "f" []);
  Alcotest.(check (list string)) (on backend "begin/end sequence")
    [ "begin function 0:-1";
      "begin block 0:0";
      "begin loop 0:1";
      "end loop 0:3 (begin 0:1)";
      "end block 0:4 (begin 0:0)";
      "end function 0:6 (begin 0:-1)" ]
    (got ())

let test_br_table_end_hooks backend =
  reset ();
  let m = br_table_module () in
  let groups = W.Hook.of_list [ W.Hook.G_br_table; W.Hook.G_end ] in
  let analysis =
    { W.Analysis.default with
      br_table = (fun _ targets default idx ->
        record "br_table idx=%d targets=%d default->%s" idx (Array.length targets)
          (W.Location.to_string default.W.Metadata.target_loc));
      end_ = (fun _ k _ -> record "end %s" (W.Hook.block_kind_name k)) }
  in
  ignore (run backend ~groups ~analysis m "f" [ i32 1 ]);
  (* idx 1 jumps out of the two innermost blocks; execution then reaches
     "i32 200; br 1", which ends the remaining two blocks *)
  let evs = got () in
  Alcotest.(check bool) (on backend "br_table event first") true
    (match evs with e :: _ -> Helpers.contains e "br_table idx=1" | [] -> false);
  let ends = List.filter (fun e -> Helpers.contains e "end block") evs in
  Alcotest.(check int) (on backend "2 blocks ended by br_table + 2 by the br") 4 (List.length ends)

let test_i64_join backend =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I64T ] ~locals:[]
      [ B.i64 (-2L); B.i64 3L; B.i64_mul ]
  in
  let groups = W.Hook.of_list [ W.Hook.G_binary ] in
  let analysis =
    { W.Analysis.default with
      binary = (fun _ op a b r ->
        record "%s %s %s -> %s" op (Value.to_string a) (Value.to_string b) (Value.to_string r)) }
  in
  let r = run backend ~groups ~analysis m "f" [] in
  check_values (on backend "result intact") [ Value.I64 (-6L) ] r;
  Alcotest.(check (list string)) (on backend "negative i64 joined correctly")
    [ "i64.mul i64:-2 i64:3 -> i64:-6" ] (got ())

let test_load_store_hooks backend =
  reset ();
  let m =
    single_func ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 4; B.i32 99; B.i32_store ~offset:12 (); B.i32 4; B.i32_load ~offset:12 () ]
  in
  let groups = W.Hook.of_list [ W.Hook.G_load; W.Hook.G_store ] in
  let analysis =
    { W.Analysis.default with
      load = (fun _ op (ma : W.Analysis.memarg) v ->
        record "load %s addr=%ld+%d %s" op ma.addr ma.offset (Value.to_string v));
      store = (fun _ op (ma : W.Analysis.memarg) v ->
        record "store %s addr=%ld+%d %s" op ma.addr ma.offset (Value.to_string v)) }
  in
  ignore (run backend ~groups ~analysis m "f" []);
  Alcotest.(check (list string)) (on backend "memory events")
    [ "store i32.store addr=4+12 i32:99"; "load i32.load addr=4+12 i32:99" ] (got ())

let test_drop_select_hooks backend =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.F64T ] ~locals:[]
      [ B.i32 1; Drop;
        B.f64 1.5; B.f64 2.5; B.i32 0; Select ]
  in
  let groups = W.Hook.of_list [ W.Hook.G_drop; W.Hook.G_select ] in
  let analysis =
    { W.Analysis.default with
      drop = (fun _ v -> record "drop %s" (Value.to_string v));
      select = (fun _ c a b ->
        record "select %b %s %s" c (Value.to_string a) (Value.to_string b)) }
  in
  let r = run backend ~groups ~analysis m "f" [] in
  check_values (on backend "select false -> second") [ f64 2.5 ] r;
  Alcotest.(check (list string)) (on backend "events")
    [ "drop i32:1"; "select false f64:0x1.8p+0 f64:0x1.4p+1" ] (got ())

let test_local_global_hooks backend =
  reset ();
  let bld = B.create () in
  let g = B.add_global bld ~ty:Types.I64T ~mutable_:true ~init:(Value.I64 7L) in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I64T ] ~locals:[]
      ~body:[ B.local_get 0; Drop; B.global_get g ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  let groups = W.Hook.of_list [ W.Hook.G_local; W.Hook.G_global ] in
  let analysis =
    { W.Analysis.default with
      local = (fun _ op i v -> record "%s %d %s" op i (Value.to_string v));
      global = (fun _ op i v -> record "%s %d %s" op i (Value.to_string v)) }
  in
  ignore (run backend ~groups ~analysis m "f" [ i32 3 ]);
  Alcotest.(check (list string)) (on backend "events")
    [ "local.get 0 i32:3"; "global.get 0 i64:7" ] (got ())

let test_return_hook backend =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ Block None; B.i32 5; Return; End; B.i32 1 ]
  in
  let groups = W.Hook.of_list [ W.Hook.G_return; W.Hook.G_end ] in
  let analysis =
    { W.Analysis.default with
      return_ = (fun _ rs -> record "return [%s]" (String.concat ";" (List.map Value.to_string rs)));
      end_ = (fun _ k _ -> record "end %s" (W.Hook.block_kind_name k)) }
  in
  let r = run backend ~groups ~analysis m "f" [] in
  check_values (on backend "returned 5") [ i32 5 ] r;
  Alcotest.(check (list string)) (on backend "return + all ends")
    [ "return [i32:5]"; "end block"; "end function" ] (got ())

let test_monomorphization_on_demand () =
  (* hooks are generated only for type variants present in the module *)
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 1; Drop; B.i32 2; Drop; B.f64 1.0; Drop; B.i32 0 ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_drop ]) m in
  let specs = res.W.Instrument.metadata.W.Metadata.hook_specs in
  let drops =
    Array.to_list specs
    |> List.filter (function W.Hook.S_drop _ -> true | _ -> false)
  in
  (* i32 used twice but one hook; f64 once; i64/f32 never -> absent *)
  Alcotest.(check int) "two drop variants" 2 (List.length drops)

let test_unreachable_code_skipped () =
  (* code after an unconditional branch is dead; instrumentation must not
     produce an invalid module *)
  let body =
    [ Block None; Br 0; B.i32 1; Drop; End; B.i32 3 ]
  in
  let m = single_func ~params:[] ~results:[ Types.I32T ] ~locals:[] body in
  let res = instrument m in
  Validate.validate_module res.W.Instrument.instrumented;
  check_values "still works" [ i32 3 ] (run_instrumented res "f" [])

let test_if_hook backend =
  reset ();
  let m =
    single_func ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ([ B.local_get 0 ] @ B.if_ ~result:Types.I32T ~then_:[ B.i32 1 ] ~else_:[ B.i32 2 ] ())
  in
  let groups = W.Hook.of_list [ W.Hook.G_if ] in
  let analysis = { W.Analysis.default with if_ = (fun _ c -> record "if %b" c) } in
  let r = run backend ~groups ~analysis m "f" [ i32 0 ] in
  check_values (on backend "else branch") [ i32 2 ] r;
  Alcotest.(check (list string)) (on backend "events") [ "if false" ] (got ())

let test_instrument_module_with_imports () =
  (* original imports keep their indices; hook imports slot in between;
     call_pre reports the imported callee's original index *)
  reset ();
  let bld = B.create () in
  let log = B.import_func bld ~module_name:"env" ~name:"log"
      ~params:[ Types.I32T ] ~results:[ Types.I32T ]
  in
  let helper = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 1; B.i32_add ]
  in
  let f = B.add_func bld ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.i32 5; Call log; Call helper ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let res = instrument m in
  Validate.validate_module res.W.Instrument.instrumented;
  let analysis =
    { W.Analysis.default with
      call_pre = (fun _ callee _ _ -> record "call func=%d" callee) }
  in
  let rt = W.Runtime.create res analysis in
  let ext =
    Interp.host_func ~name:"log" ~params:[ Types.I32T ] ~results:[ Types.I32T ]
      (function [ Value.I32 x ] -> [ Value.I32 (Int32.mul x 10l) ] | _ -> assert false)
  in
  let inst =
    Interp.instantiate
      ~imports:(W.Runtime.imports rt @ [ ("env", "log", ext) ])
      res.W.Instrument.instrumented
  in
  rt.W.Runtime.instance <- Some inst;
  check_values "5 *10 +1" [ i32 51 ] (Interp.invoke_export inst "f" []);
  (* callee indices are reported in the ORIGINAL index space *)
  Alcotest.(check (list string)) "call events"
    [ Printf.sprintf "call func=%d" log; Printf.sprintf "call func=%d" helper ]
    (got ())

let test_parallel_instrumentation () =
  (* functions instrumented across 4 domains: the module still validates
     and behaves identically (hook ordinals may differ from serial) *)
  let m =
    Minic.Mc_compile.compile (Workloads.Realworld.pdfkit ~doc_len:200 ())
  in
  Validate.validate_module m;
  let serial = W.Instrument.instrument m in
  let parallel = W.Instrument.instrument ~domains:4 m in
  Validate.validate_module parallel.W.Instrument.instrumented;
  Alcotest.(check int) "same number of hooks"
    (serial.W.Instrument.metadata.W.Metadata.num_hooks)
    (parallel.W.Instrument.metadata.W.Metadata.num_hooks);
  let run res =
    let inst, _ = W.Runtime.instantiate res W.Analysis.default in
    Interp.invoke_export inst "run" []
  in
  check_values "parallel = serial behaviour" (run serial) (run parallel)

let test_export_names_preserved () =
  let m = rich_module () in
  let res = instrument m in
  let names = List.map (fun (e : export) -> e.name) res.W.Instrument.instrumented.exports in
  Alcotest.(check (list string)) "exports kept" [ "f" ] names

let suite =
  [
    case "instrumented module validates" test_instrumented_validates;
    case "br_table instrumentation validates" test_br_table_validates;
    case "every selective group validates" test_selective_validates;
    case "faithful: rich module" test_faithful_rich;
    case "faithful: br_table" test_faithful_br_table;
    case "faithful: per group" test_faithful_selective;
    case "faithful: memory contents" test_faithful_memory;
    case "const hook" (both test_const_hook);
    case "binary hook" (both test_binary_hook);
    case "call hooks" (both test_call_hooks);
    case "indirect call resolution" (both test_indirect_call_resolution);
    case "begin/end balanced" (both test_begin_end_balanced);
    case "branch target resolution" (both test_branch_resolution);
    case "end hooks on branch" (both test_end_hooks_on_branch);
    case "br_table end hooks" (both test_br_table_end_hooks);
    case "i64 split and join" (both test_i64_join);
    case "load/store hooks" (both test_load_store_hooks);
    case "drop/select hooks" (both test_drop_select_hooks);
    case "local/global hooks" (both test_local_global_hooks);
    case "return hook" (both test_return_hook);
    case "on-demand monomorphization" test_monomorphization_on_demand;
    case "dead code handled" test_unreachable_code_skipped;
    case "if hook" (both test_if_hook);
    case "module with imports" test_instrument_module_with_imports;
    case "parallel instrumentation" test_parallel_instrumentation;
    case "exports preserved" test_export_names_preserved;
  ]
