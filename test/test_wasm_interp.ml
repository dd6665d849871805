(** Interpreter behaviour: arithmetic, control flow, memory, calls, traps. *)

open Wasm
open Wasm.Ast
open Helpers
module B = Wasm.Builder

let case name f = Alcotest.test_case name `Quick f

let test_consts () =
  check_values "i32 const" [ i32 42 ]
    (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] [ B.i32 42 ] []);
  check_values "i64 const" [ Value.I64 77L ]
    (run_f ~params:[] ~results:[ Types.I64T ] ~locals:[] [ B.i64 77L ] []);
  check_values "f64 const" [ f64 2.5 ]
    (run_f ~params:[] ~results:[ Types.F64T ] ~locals:[] [ B.f64 2.5 ] [])

let test_arith () =
  let bin op x y = run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] [ B.i32 x; B.i32 y; op ] [] in
  check_values "add" [ i32 7 ] (bin B.i32_add 3 4);
  check_values "sub" [ i32 (-1) ] (bin B.i32_sub 3 4);
  check_values "mul" [ i32 12 ] (bin B.i32_mul 3 4);
  check_values "div_s" [ i32 (-2) ] (bin B.i32_div_s (-7) 3);
  check_values "rem_s" [ i32 (-1) ] (bin B.i32_rem_s (-7) 3);
  check_values "shl" [ i32 16 ] (bin B.i32_shl 1 4);
  check_values "xor" [ i32 6 ] (bin B.i32_xor 5 3)

let test_unsigned () =
  let v =
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32' (-1l); B.i32 2; Binary (IBin (Types.S32, DivU)) ] []
  in
  check_values "div_u of -1" [ Value.I32 0x7FFFFFFFl ] v;
  let v =
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32' (-1l); B.i32 0; Compare (IRel (Types.S32, LtU)) ] []
  in
  check_values "-1 <u 0 is false" [ i32 0 ] v

let test_clz_popcnt () =
  let un op x =
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] [ B.i32' x; Unary (IUn (Types.S32, op)) ] []
  in
  check_values "clz 1" [ i32 31 ] (un Clz 1l);
  check_values "clz 0" [ i32 32 ] (un Clz 0l);
  check_values "ctz 8" [ i32 3 ] (un Ctz 8l);
  check_values "popcnt 0xFF" [ i32 8 ] (un Popcnt 0xFFl)

let test_float () =
  let binf op x y =
    run_f ~params:[] ~results:[ Types.F64T ] ~locals:[] [ B.f64 x; B.f64 y; op ] []
  in
  check_values "f64 add" [ f64 5.75 ] (binf B.f64_add 2.25 3.5);
  check_values "f64 div" [ f64 2.5 ] (binf B.f64_div 5.0 2.0);
  check_values "min -0" [ f64 (-0.0) ] (binf (Binary (FBin (Types.SF64, Min))) (-0.0) 0.0);
  let nearest x =
    run_f ~params:[] ~results:[ Types.F64T ] ~locals:[]
      [ B.f64 x; Unary (FUn (Types.SF64, Nearest)) ] []
  in
  check_values "nearest 2.5 -> 2 (ties to even)" [ f64 2.0 ] (nearest 2.5);
  check_values "nearest 3.5 -> 4" [ f64 4.0 ] (nearest 3.5)

let test_conversions () =
  let cvt op v rty = run_f ~params:[] ~results:[ rty ] ~locals:[] [ Const v; Convert op ] [] in
  check_values "wrap" [ i32 1 ] (cvt I32WrapI64 (Value.I64 0x1_0000_0001L) Types.I32T);
  check_values "extend_s" [ Value.I64 (-1L) ] (cvt I64ExtendI32S (Value.I32 (-1l)) Types.I64T);
  check_values "extend_u" [ Value.I64 0xFFFFFFFFL ] (cvt I64ExtendI32U (Value.I32 (-1l)) Types.I64T);
  check_values "trunc" [ i32 (-3) ] (cvt I32TruncF64S (Value.F64 (-3.7)) Types.I32T);
  check_values "convert" [ f64 5.0 ] (cvt F64ConvertI32S (i32 5) Types.F64T);
  check_values "reinterpret" [ Value.I64 0x3FF0000000000000L ]
    (cvt I64ReinterpretF64 (Value.F64 1.0) Types.I64T)

let test_trunc_traps () =
  check_traps "trunc nan" "invalid conversion" (fun () ->
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.f64 Float.nan; Convert I32TruncF64S ] []);
  check_traps "trunc overflow" "integer overflow" (fun () ->
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.f64 3e9; Convert I32TruncF64S ] [])

let test_div_traps () =
  check_traps "div by zero" "divide by zero" (fun () ->
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] [ B.i32 1; B.i32 0; B.i32_div_s ] []);
  check_traps "overflow" "integer overflow" (fun () ->
    run_f ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32' Int32.min_int; B.i32' (-1l); B.i32_div_s ] [])

let test_locals_params () =
  let body =
    [ B.local_get 0; B.i32 10; B.i32_mul; B.local_get 1; B.i32_add;
      B.local_set 2; B.local_get 2 ]
  in
  check_values "params and locals" [ i32 74 ]
    (run_f ~params:[ Types.I32T; Types.I32T ] ~results:[ Types.I32T ] ~locals:[ Types.I32T ]
       body [ i32 7; i32 4 ])

let test_block_br () =
  let body = B.block ~result:Types.I32T [ B.i32 1; Br 0; Unreachable ] in
  check_values "br out of block" [ i32 1 ]
    (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] body [])

let test_if_else () =
  let body cond =
    [ B.i32 cond ] @ B.if_ ~result:Types.I32T ~then_:[ B.i32 10 ] ~else_:[ B.i32 20 ] ()
  in
  check_values "then" [ i32 10 ] (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] (body 1) []);
  check_values "else" [ i32 20 ] (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] (body 0) [])

let test_if_no_else () =
  let body =
    [ B.local_get 0 ]
    @ B.if_ ~then_:[ B.i32 5; B.local_set 1 ] ~else_:[] ()
    @ [ B.local_get 1 ]
  in
  check_values "if taken" [ i32 5 ]
    (run_f ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[ Types.I32T ] body [ i32 1 ]);
  check_values "if not taken" [ i32 0 ]
    (run_f ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[ Types.I32T ] body [ i32 0 ])

(* sum 1..n with a loop: local 0 = n, local 1 = acc *)
let loop_sum_body =
  [ B.i32 0; B.local_set 1 ]
  @ B.block
      (B.loop
         ([ B.local_get 0; B.i32_eqz; BrIf 1 ]
          @ [ B.local_get 1; B.local_get 0; B.i32_add; B.local_set 1 ]
          @ [ B.local_get 0; B.i32 1; B.i32_sub; B.local_set 0 ]
          @ [ Br 0 ]))
  @ [ B.local_get 1 ]

let test_loop () =
  check_values "sum 1..10" [ i32 55 ]
    (run_f ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[ Types.I32T ]
       loop_sum_body [ i32 10 ])

let test_br_table () =
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
  let run v = run_f ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] body [ i32 v ] in
  check_values "case 0" [ i32 100 ] (run 0);
  check_values "case 1" [ i32 200 ] (run 1);
  check_values "case 2 (default target)" [ i32 300 ] (run 2);
  check_values "out of range -> default" [ i32 300 ] (run 9)

let test_calls () =
  let bld = B.create () in
  let g = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 1; B.i32_add ]
  in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; Call g; B.i32 2; B.i32_mul ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  check_values "call" [ i32 8 ] (Interp.invoke_export inst "f" [ i32 3 ])

let test_recursion () =
  let bld = B.create () in
  let fh = B.declare_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] in
  B.set_body fh ~locals:[]
    ~body:
      ([ B.local_get 0; B.i32 1; B.i32_le_s ]
       @ B.if_ ~result:Types.I32T
           ~then_:[ B.i32 1 ]
           ~else_:[ B.local_get 0; B.local_get 0; B.i32 1; B.i32_sub; Call fh.B.fh_index; B.i32_mul ]
           ());
  B.export_func bld ~name:"f" fh.B.fh_index;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  check_values "5!" [ i32 120 ] (Interp.invoke_export inst "f" [ i32 5 ]);
  check_values "10!" [ i32 3628800 ] (Interp.invoke_export inst "f" [ i32 10 ])

let test_call_indirect () =
  let bld = B.create () in
  let double = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 2; B.i32_mul ]
  in
  let square = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.local_get 0; B.i32_mul ]
  in
  B.add_table bld ~min_size:2 ~max_size:None;
  B.add_elem bld ~offset:0 ~funcs:[ double; square ];
  let ti = B.add_type bld (Types.func_type [ Types.I32T ] [ Types.I32T ]) in
  let f = B.add_func bld ~params:[ Types.I32T; Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 1; B.local_get 0; CallIndirect ti ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  check_values "table[0] = double" [ i32 14 ] (Interp.invoke_export inst "f" [ i32 0; i32 7 ]);
  check_values "table[1] = square" [ i32 49 ] (Interp.invoke_export inst "f" [ i32 1; i32 7 ]);
  check_traps "table[5] undefined" "undefined element" (fun () ->
    ignore (Interp.invoke_export inst "f" [ i32 5; i32 7 ]))

let test_memory () =
  let body = [ B.i32 8; B.i32 12345; B.i32_store (); B.i32 8; B.i32_load () ] in
  check_values "store/load roundtrip" [ i32 12345 ]
    (run_f ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[] body []);
  let body = [ B.i32 100; B.i32' (-1l); B.i32_store8 (); B.i32 100; B.i32_load8_u () ] in
  check_values "packed store8/load8_u" [ i32 255 ]
    (run_f ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[] body [])

let test_memory_oob () =
  check_traps "oob load" "out of bounds" (fun () ->
    run_f ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 65536; B.i32_load () ] []);
  check_traps "oob straddling end" "out of bounds" (fun () ->
    run_f ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 65533; B.i32_load () ] [])

let test_memory_grow () =
  let body = [ MemorySize; Drop; B.i32 2; MemoryGrow; Drop; MemorySize ] in
  check_values "grow 1 -> 3 pages" [ i32 3 ]
    (run_f ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[] body [])

let test_host_call () =
  let calls = ref [] in
  let ext =
    Interp.host_func ~name:"log" ~params:[ Types.I32T ] ~results:[]
      (fun args -> calls := args :: !calls; [])
  in
  let r =
    run_f
      ~imports:[ ("env", "log", [ Types.I32T ], []) ]
      ~externs:[ ("env", "log", ext) ]
      ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 11; Call 0; B.i32 99 ] []
  in
  check_values "result" [ i32 99 ] r;
  check_values "host saw arg" [ i32 11 ] (List.concat !calls)

let test_globals () =
  let bld = B.create () in
  let g = B.add_global bld ~ty:Types.I32T ~mutable_:true ~init:(Value.I32 5l) in
  let f = B.add_func bld ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.global_get g; B.i32 1; B.i32_add; B.global_set g; B.global_get g ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  check_values "first bump" [ i32 6 ] (Interp.invoke_export inst "f" []);
  check_values "state persists" [ i32 7 ] (Interp.invoke_export inst "f" [])

let test_start_and_data () =
  let bld = B.create () in
  B.add_memory bld ~min_pages:1 ~max_pages:None;
  B.add_data bld ~offset:16 ~bytes:"\x2A\x00\x00\x00";
  let s = B.add_func bld ~params:[] ~results:[] ~locals:[]
      ~body:[ B.i32 20; B.i32 7; B.i32_store () ]
  in
  B.set_start bld s;
  let f = B.add_func bld ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.i32 16; B.i32_load (); B.i32 20; B.i32_load (); B.i32_add ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  check_values "data + start effects" [ i32 49 ] (Interp.invoke_export inst "f" [])

let test_select_drop () =
  let body c = [ B.i32 111; B.i32 222; B.i32 c; Select ] in
  check_values "select true" [ i32 111 ]
    (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] (body 1) []);
  check_values "select false" [ i32 222 ]
    (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] (body 0) []);
  check_values "drop" [ i32 1 ]
    (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] [ B.i32 1; B.f64 9.9; Drop ] [])

let test_fuel () =
  let bld = B.create () in
  let f = B.add_func bld ~params:[] ~results:[] ~locals:[] ~body:(B.loop [ Br 0 ]) in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~fuel:10_000 ~imports:[] m in
  Alcotest.check_raises "fuel exhausted" (Interp.Exhaustion "out of fuel") (fun () ->
    ignore (Interp.invoke_export inst "f" []))

let test_call_stack_exhaustion () =
  (* unbounded recursion raises Exhaustion instead of crashing the host stack *)
  let bld = B.create () in
  let fh = B.declare_func bld ~params:[] ~results:[ Types.I32T ] in
  B.set_body fh ~locals:[] ~body:[ Call fh.B.fh_index ];
  B.export_func bld ~name:"f" fh.B.fh_index;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  Alcotest.check_raises "deep recursion" (Interp.Exhaustion "call stack exhausted") (fun () ->
    ignore (Interp.invoke_export inst "f" []));
  (* the guard unwinds: a subsequent shallow call still works *)
  Alcotest.(check int) "depth restored" 0 inst.Interp.call_depth

let test_i64_memory () =
  let body = [ B.i32 0; Const (Value.I64 0x0123456789ABCDEFL); B.i64_store (); B.i32 0; B.i64_load () ] in
  check_values "i64 roundtrip" [ Value.I64 0x0123456789ABCDEFL ]
    (run_f ~memory:1 ~params:[] ~results:[ Types.I64T ] ~locals:[] body [])

let test_multi_arg_ordering () =
  (* regression for the operand-stack pop_n: with >= 4 differently-typed
     arguments, each argument must land in its own parameter slot, in
     order, whether the function is entered via invoke, Call or
     CallIndirect. The weighted sum is order-sensitive: any permutation
     of the arguments changes the result. *)
  let bld = B.create () in
  let sig_params = [ Types.I32T; Types.I64T; Types.F64T; Types.I32T ] in
  let callee = B.add_func bld ~params:sig_params ~results:[ Types.F64T ] ~locals:[]
      ~body:
        [ B.local_get 0; Convert F64ConvertI32S; B.f64 1000.0; B.f64_mul;
          B.local_get 1; Convert F64ConvertI64S; B.f64 100.0; B.f64_mul; B.f64_add;
          B.local_get 2; B.f64 10.0; B.f64_mul; B.f64_add;
          B.local_get 3; Convert F64ConvertI32S; B.f64_add ]
  in
  B.add_table bld ~min_size:1 ~max_size:None;
  B.add_elem bld ~offset:0 ~funcs:[ callee ];
  let ti = B.add_type bld (Types.func_type sig_params [ Types.F64T ]) in
  let push_args = [ B.i32 1; B.i64 2L; B.f64 3.0; B.i32 4 ] in
  let via_call = B.add_func bld ~params:[] ~results:[ Types.F64T ] ~locals:[]
      ~body:(push_args @ [ Call callee ])
  in
  let via_indirect = B.add_func bld ~params:[] ~results:[ Types.F64T ] ~locals:[]
      ~body:(push_args @ [ B.i32 0; CallIndirect ti ])
  in
  B.export_func bld ~name:"callee" callee;
  B.export_func bld ~name:"via_call" via_call;
  B.export_func bld ~name:"via_indirect" via_indirect;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  let expect = [ f64 1234.0 ] in
  check_values "direct invoke" expect
    (Interp.invoke_export inst "callee" [ i32 1; i64 2; f64 3.0; i32 4 ]);
  check_values "via call" expect (Interp.invoke_export inst "via_call" []);
  check_values "via call_indirect" expect (Interp.invoke_export inst "via_indirect" [])

let test_br_table_large () =
  (* the precomputed br_table side table with a 100-entry target list:
     every entry dispatches correctly, and out-of-range selectors
     (including negative ones, which are huge unsigned) take the
     default *)
  let targets = List.init 100 (fun i -> i mod 3) in
  let body =
    [ Block (Some Types.I32T);
      Block None;
      Block None;
      Block None;
      B.local_get 0;
      BrTable (targets, 2);
      End;
      B.i32 100; Br 2;
      End;
      B.i32 200; Br 1;
      End;
      B.i32 300;
      End ]
  in
  let run v = run_f ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] body [ i32 v ] in
  let expect i = [ i32 (match i mod 3 with 0 -> 100 | 1 -> 200 | _ -> 300) ] in
  List.iter
    (fun i -> check_values (Printf.sprintf "entry %d" i) (expect i) (run i))
    [ 0; 1; 2; 3; 49; 97; 98; 99 ];
  check_values "100 (one past the end) -> default" [ i32 300 ] (run 100);
  check_values "-1 (unsigned huge) -> default" [ i32 300 ] (run (-1))

let test_shift_masking () =
  (* shift and rotate counts use only the low log2(width) bits: counts
     at or beyond the width, and negative counts (huge unsigned), must
     wrap — identically on the dispatch loop and the compiled tier *)
  let run32 tier op x c =
    let body = [ B.i32' x; B.i32' c; Binary (IBin (Types.S32, op)) ] in
    (if tier then run_f_tiered ?fuel:None else run_f)
      ~params:[] ~results:[ Types.I32T ] ~locals:[] body []
  in
  let run64 tier op x c =
    let body = [ B.i64 x; B.i64 c; Binary (IBin (Types.S64, op)) ] in
    (if tier then run_f_tiered ?fuel:None else run_f)
      ~params:[] ~results:[ Types.I64T ] ~locals:[] body []
  in
  List.iter
    (fun tier ->
       let t = if tier then "t1" else "t0" in
       let chk name expect op x c =
         check_values (t ^ " i32 " ^ name) [ Value.I32 expect ] (run32 tier op x c)
       in
       chk "shl by 32 is identity" 1l Shl 1l 32l;
       chk "shl by 33 shifts by 1" 2l Shl 1l 33l;
       chk "shl by -1 shifts by 31" 0x80000000l Shl 1l (-1l);
       chk "shr_u by 32 is identity" 0x80000000l ShrU 0x80000000l 32l;
       chk "shr_s by 33 shifts by 1" (-2l) ShrS (-4l) 33l;
       chk "shr_u by -1 shifts by 31" 1l ShrU 0x80000000l (-1l);
       chk "rotl by 36 rotates by 4" 0xFl Rotl 0xF0000000l 36l;
       chk "rotr by 36 rotates by 4" 0xF0000000l Rotr 0xFl 36l;
       let chk name expect op x c =
         check_values (t ^ " i64 " ^ name) [ Value.I64 expect ] (run64 tier op x c)
       in
       chk "shl by 64 is identity" 1L Shl 1L 64L;
       chk "shl by 65 shifts by 1" 2L Shl 1L 65L;
       chk "shl by -1 shifts by 63" Int64.min_int Shl 1L (-1L);
       chk "shr_u by 64 is identity" Int64.min_int ShrU Int64.min_int 64L;
       chk "shr_s by 65 shifts by 1" (-2L) ShrS (-4L) 65L;
       chk "shr_u by -1 shifts by 63" 1L ShrU Int64.min_int (-1L);
       chk "rotl by 68 rotates by 4" 0xFL Rotl 0xF000000000000000L 68L;
       chk "rotr by 68 rotates by 4" 0xF000000000000000L Rotr 0xFL 68L)
    [ false; true ]

let test_tier1_traps () =
  (* traps and exhaustion must carry the same identity out of compiled
     frames as out of the dispatch loop *)
  check_traps "t1 div by zero" "divide by zero" (fun () ->
    run_f_tiered ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 1; B.i32 0; B.i32_div_s ] []);
  check_traps "t1 div overflow" "integer overflow" (fun () ->
    run_f_tiered ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32' Int32.min_int; B.i32' (-1l); B.i32_div_s ] []);
  check_traps "t1 oob load" "out of bounds" (fun () ->
    run_f_tiered ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 65536; B.i32_load () ] []);
  check_traps "t1 oob straddling end" "out of bounds" (fun () ->
    run_f_tiered ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 65533; B.i32_load () ] []);
  check_traps "t1 unreachable" "unreachable executed" (fun () ->
    run_f_tiered ~params:[] ~results:[] ~locals:[] [ Unreachable ] []);
  (* call-depth exhaustion with every frame compiled *)
  let bld = B.create () in
  let fh = B.declare_func bld ~params:[] ~results:[ Types.I32T ] in
  B.set_body fh ~locals:[] ~body:[ Call fh.B.fh_index ];
  B.export_func bld ~name:"f" fh.B.fh_index;
  let m = B.build bld in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:[] m in
  ignore (Tier1.compile_all inst);
  Alcotest.check_raises "t1 deep recursion" (Interp.Exhaustion "call stack exhausted")
    (fun () -> ignore (Interp.invoke_export inst "f" []));
  Alcotest.(check int) "t1 depth restored" 0 inst.Interp.call_depth

let test_tier1_fuel_parity () =
  (* out of fuel must cut both tiers at exactly the same instruction:
     the same exception and the same step count *)
  let mk () =
    let bld = B.create () in
    let f =
      B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[ Types.I32T ]
        ~body:loop_sum_body
    in
    B.export_func bld ~name:"f" f;
    B.build bld
  in
  let run tiered =
    let m = mk () in
    Validate.validate_module m;
    let inst = Interp.instantiate ~fuel:1_000 ~imports:[] m in
    if tiered then ignore (Tier1.compile_all inst);
    (match Interp.invoke_export inst "f" [ i32 1_000_000 ] with
     | _ -> Alcotest.fail "expected exhaustion"
     | exception Interp.Exhaustion "out of fuel" -> ());
    inst.Interp.steps
  in
  Alcotest.(check int) "same steps at exhaustion" (run false) (run true)

let test_deep_operand_stack () =
  (* push 3000 constants before consuming any: the shared operand stack
     must grow well past its initial capacity and keep every slot *)
  let n = 3000 in
  let body =
    List.init n (fun _ -> B.i32 1) @ List.init (n - 1) (fun _ -> B.i32_add)
  in
  check_values "sum of 3000 ones" [ i32 n ]
    (run_f ~params:[] ~results:[ Types.I32T ] ~locals:[] body [])

let test_tier1_select () =
  (* tier 1 types each select's operands from its first pass: a select
     of every value type compiles (no fallback to tier 0) and picks the
     same operand as tier 0 *)
  List.iter
    (fun (name, ty, a, b) ->
       let m = single_func ~params:[ Types.I32T ] ~results:[ ty ] ~locals:[] [ a; b; LocalGet 0; Select ] in
       Validate.validate_module m;
       let t0 = Interp.instantiate ~imports:[] m and t1 = Interp.instantiate ~imports:[] m in
       Alcotest.(check int) (name ^ " select compiles") 1 (Tier1.compile_all t1);
       List.iter
         (fun c ->
            check_values (Printf.sprintf "%s select %d" name c)
              (Interp.invoke_export t0 "f" [ i32 c ]) (Interp.invoke_export t1 "f" [ i32 c ]))
         [ 0; 1 ])
    [ ("i32", Types.I32T, B.i32 7, B.i32 9); ("i64", Types.I64T, B.i64 7L, B.i64 9L);
      ("f32", Types.F32T, B.f32 7.0, B.f32 9.0); ("f64", Types.F64T, B.f64 7.0, B.f64 9.0) ]

let suite =
  [
    case "consts" test_consts;
    case "arith" test_arith;
    case "unsigned" test_unsigned;
    case "clz/ctz/popcnt" test_clz_popcnt;
    case "float" test_float;
    case "conversions" test_conversions;
    case "trunc traps" test_trunc_traps;
    case "div traps" test_div_traps;
    case "locals and params" test_locals_params;
    case "block and br" test_block_br;
    case "if/else" test_if_else;
    case "if without else" test_if_no_else;
    case "loop" test_loop;
    case "br_table" test_br_table;
    case "calls" test_calls;
    case "recursion" test_recursion;
    case "call_indirect" test_call_indirect;
    case "memory" test_memory;
    case "memory oob" test_memory_oob;
    case "memory.grow" test_memory_grow;
    case "host calls" test_host_call;
    case "globals" test_globals;
    case "start and data segments" test_start_and_data;
    case "select/drop" test_select_drop;
    case "fuel" test_fuel;
    case "call stack exhaustion" test_call_stack_exhaustion;
    case "i64 memory" test_i64_memory;
    case "multi-arg ordering (call / call_indirect)" test_multi_arg_ordering;
    case "br_table with 100 entries" test_br_table_large;
    case "shift/rotate count masking (t0 and t1)" test_shift_masking;
    case "tier-1 traps" test_tier1_traps;
    case "tier-1 out-of-fuel parity" test_tier1_fuel_parity;
    case "deep operand stack" test_deep_operand_stack;
    case "tier-1 select of every type" test_tier1_select;
  ]
