(** The Wasabi binary instrumenter (paper, Section 2.4): lowers the hook
    events the {!Plan} gives every instruction of the selected groups to
    calls of imported low-level hooks, following Table 3 of the paper.
    The instrumented module faithfully preserves the original behaviour,
    including its memory. *)

type result = {
  instrumented : Wasm.Ast.module_;
  metadata : Metadata.t;
  hook_map : Hook.Map.t;
}

val instrument :
  ?groups:Hook.Group_set.t -> ?split_i64:bool -> ?domains:int ->
  ?prune_unreachable:bool -> ?fold:bool -> Wasm.Ast.module_ -> result
(** Instrument for the given hook groups (default: all). [split_i64]
    (default [true]) splits i64 hook arguments into two i32 halves, as
    required when the analysis host is JavaScript; [false] is the
    native-host ablation. [domains] (default 1) instruments functions in
    parallel — the monomorphization map is the only shared state and is
    mutex-guarded, mirroring the paper's Section 3. [prune_unreachable]
    (default [false]) consults the static call graph and leaves functions
    unreachable from any export/start root uninstrumented (their bodies
    are kept verbatim, only call sites are remapped); the skipped indices
    are recorded in [Metadata.pruned_funcs]. [fold] (default [false]) runs
    the whole-module abstract interpretation ({!Static.Absint}) first and
    discharges hook sites statically: sites proven unreachable keep their
    instruction verbatim with no hooks, and hook value arguments proven
    constant are passed as immediates instead of being duplicated through
    temp locals ([Metadata.folded]; with [prune_unreachable] it also
    prunes against the precise call graph). The input module must be
    valid; the output module validates and imports its hooks from
    [Hook.import_module]. *)

val remap_index : n_imp:int -> n_orig:int -> h:int -> int -> int
(** The function-index remapping applied after hook imports are inserted
    (exposed for tests): original imports keep their indices, hooks take
    the next [h] indices, defined functions shift up by [h]. *)
