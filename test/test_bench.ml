(** Unit tests for the benchmark support library: the block-comment-aware
    OCaml LoC counter backing the paper's Table 4 (analysis LoC). *)

let case name f = Alcotest.test_case name `Quick f

let loc = Bench_support.Support.ml_loc_of_string

let test_basic () =
  Alcotest.(check int) "empty" 0 (loc "");
  Alcotest.(check int) "blank lines only" 0 (loc "\n  \n\t\n");
  Alcotest.(check int) "single line without newline" 1 (loc "let x = 1");
  Alcotest.(check int) "two lines" 2 (loc "let x = 1\nlet y = 2\n")

let test_block_comments () =
  Alcotest.(check int) "whole-line comment" 0 (loc "(* nothing here *)\n");
  Alcotest.(check int) "multi-line comment interior" 0
    (loc "(* first\n   second\n   third *)\n");
  Alcotest.(check int) "code before a trailing comment counts" 1
    (loc "let x = 1 (* trailing note *)\n");
  Alcotest.(check int) "code after a leading comment counts" 1
    (loc "(* leading note *) let x = 1\n");
  Alcotest.(check int) "comment sandwich" 3
    (loc "let a = 1\n(* a\n   long\n   explanation *)\nlet b = 2\nlet c = a + b\n")

let test_nested_comments () =
  (* OCaml block comments nest; the counter must track the depth *)
  Alcotest.(check int) "nested comment on one line" 0
    (loc "(* outer (* inner *) still a comment *)\n");
  Alcotest.(check int) "code resumes only at depth zero" 1
    (loc "(* outer (* inner *) still a comment *)\nlet x = 1\n");
  Alcotest.(check int) "nested comment spanning lines" 1
    (loc "(* a (* b\n c *) d\n*) let live = ()\n")

let test_edge_cases () =
  (* '*' not preceded by '(' is ordinary code *)
  Alcotest.(check int) "multiplication is code" 1 (loc "let f = a * b\n");
  Alcotest.(check int) "unterminated comment swallows the rest" 1
    (loc "let x = 1\n(* never closed\nlet y = 2\n")

let test_median () =
  let median = Bench_support.Support.median in
  Alcotest.(check (float 0.0)) "odd length: the middle" 2.0 (median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even length: mean of the middle two" 2.5
    (median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check bool) "empty: nan" true (Float.is_nan (median []))

let suite =
  [
    case "LoC counter basics" test_basic;
    case "LoC counter block comments" test_block_comments;
    case "LoC counter nested comments" test_nested_comments;
    case "LoC counter edge cases" test_edge_cases;
    case "median" test_median;
  ]
