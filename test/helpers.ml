(** Shared test helpers: small module constructors and value checks. *)

open Wasm

let value = Alcotest.testable Value.pp Value.equal

let check_values msg expected actual =
  Alcotest.(check (list value)) msg expected actual

(** A module with a single exported function "f" of the given signature. *)
let single_func ?(imports = []) ?memory ~params ~results ~locals body =
  let b = Builder.create () in
  List.iter
    (fun (module_name, name, ps, rs) ->
       ignore (Builder.import_func b ~module_name ~name ~params:ps ~results:rs))
    imports;
  (match memory with
   | Some pages -> Builder.add_memory b ~min_pages:pages ~max_pages:None
   | None -> ());
  let f = Builder.add_func b ~params ~results ~locals ~body in
  Builder.export_func b ~name:"f" f;
  Builder.build b

(** Validate, instantiate and invoke "f" in one go. *)
let run_f ?(imports = []) ?(externs = []) ?memory ~params ~results ~locals body args =
  let m = single_func ~imports ?memory ~params ~results ~locals body in
  Validate.validate_module m;
  let inst = Interp.instantiate ~imports:externs m in
  Interp.invoke_export inst "f" args

(** As {!run_f}, but with every body eagerly compiled to tier 1, so the
    same program exercises the closure-compiled backend. *)
let run_f_tiered ?(imports = []) ?(externs = []) ?memory ?fuel ~params ~results ~locals body
    args =
  let m = single_func ~imports ?memory ~params ~results ~locals body in
  Validate.validate_module m;
  let inst = Interp.instantiate ?fuel ~imports:externs m in
  ignore (Tier1.compile_all inst);
  Interp.invoke_export inst "f" args

let i32 = Value.i32_of_int
let i64 x = Value.I64 (Int64.of_int x)
let f64 x = Value.F64 x

(** [contains s sub] tests for a substring without extra dependencies. *)
let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

(** Expect a trap whose message contains [substring]. *)
let check_traps msg substring f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a trap containing %S" msg substring
  | exception Value.Trap m ->
    if not (contains m substring) then
      Alcotest.failf "%s: trap %S does not mention %S" msg m substring

(** Where an analysis runs (see {!run_analysis}). *)
type backend =
  | T0  (** the instrumented module on tier 0: every event decoded *)
  | T1
      (** the instrumented module compiled up front on tier 1: hook calls
          bound to site entries, which an analysis may count *)
  | T1_profiled  (** as [T1], with a profiler attached: bound sites decode *)
  | Probes  (** the original module under engine probes on every group *)
  | Async
      (** one served run on tier 1 whose events are reified and applied
          by a consumer domain *)

let backend_name = function
  | T0 -> "tier 0"
  | T1 -> "tier 1"
  | T1_profiled -> "tier 1, profiled"
  | Probes -> "probes"
  | Async -> "async"

(** Run the [entry] export (default ["run"]) of the instrumented module
    [res] with [analysis] attached on [backend]; returns the program
    results ([[]] for [Async], where the farm checks its runs). *)
let run_analysis ?(decoder = `Compiled) ?(entry = "run") backend
    (res : Wasabi.Instrument.result) (analysis : Wasabi.Analysis.t) : Value.t list =
  match backend with
  | T0 | T1 | T1_profiled ->
    let inst, rt = Wasabi.Runtime.instantiate ~decoder res analysis in
    if backend = T1_profiled then
      Wasabi.Runtime.attach_profiler rt (Some (Obs.Profile.create ()));
    if backend <> T0 then ignore (Tier1.compile_all inst : int);
    Interp.invoke_export inst entry []
  | Probes ->
    let inst =
      Interp.instantiate ~imports:[] res.Wasabi.Instrument.metadata.Wasabi.Metadata.original
    in
    ignore (Tier1.compile_all inst : int);
    let c = Wasabi.Runtime.Probe.create inst analysis in
    ignore (Result.get_ok (Wasabi.Runtime.Probe.attach_spec c "all"));
    Interp.invoke_export inst entry []
  | Async ->
    let stats =
      Serve.Farm.run ~tier1:true
        ~mode:(Serve.Farm.Async { consumers = 1; capacity = 1024 })
        ~domains:1 ~runs:1 ~entry ~make_analysis:(fun _ -> analysis) res
    in
    if stats.Serve.Farm.st_faults <> 0 then Alcotest.fail "served run faulted";
    []
