type tally = {
  count : int;
  exhausted : bool;
  timed_out : bool;
  conflicts : int;
  stats : Solver.stats;
  reused : bool;
}

type outcome = {
  models : Cnf.Model.t list;
  exhausted : bool;
  timed_out : bool;
  conflicts : int;
  stats : Solver.stats;
  reused : bool;
}

(* Models are returned in canonical (key) order, not discovery order:
   a session-backed enumeration discovers witnesses in an order that
   depends on the solver's accumulated learnt clauses and activities,
   i.e. on the session's history. Complete cells are history-
   independent as SETS, so sorting makes the outcome — and everything
   downstream that indexes into it, like UniGen's uniform pick — a
   pure function of the formula, restoring bit-identity between the
   fresh and session paths and across parallel schedules. Every model
   of one cell is over the same variables, so value order is key
   order without building the keys. *)
let sort_models ms = List.sort Cnf.Model.compare ms

(* Re-check a witness (over the solver's variables, activation
   variables included) against the compiled base formula [check] and
   the hash layer [layer]; the report shows it cut to [support]. *)
let verify check ~layer ~support ~found m =
  match Cnf.Model.violation check ~xors:layer m with
  | None -> ()
  | Some where ->
      let where =
        match where with
        | `Clause i -> ("clause", string_of_int i)
        | `Xor i -> ("xor", string_of_int i)
        | `Hash_row i -> ("hash_row", string_of_int i)
      in
      let m = Cnf.Model.prefix support m in
      Audit.fail ~invariant:"model-audit"
        ~detail:"Bsat.enumerate: solver returned a witness falsifying the formula"
        [ where;
          ("witness", String.concat " " (List.map string_of_int (Cnf.Model.to_dimacs m)));
          ("found_so_far", string_of_int found) ]

(* Row-reduce the XOR system before loading the solver: RREF preserves
   the solution set exactly and typically shortens dense hash rows a
   lot (a random m×n system in RREF has rows of expected length
   1 + (n − m)/2), which is where most of the CDCL search effort on
   hash-constrained formulas goes. This is the static counterpart of
   CryptoMiniSAT's in-search Gaussian elimination. *)
let reduce_xors (f : Cnf.Formula.t) =
  if Array.length f.Cnf.Formula.xors < 2 then `Reduced f
  else
    match Cnf.Xor_gauss.eliminate (Array.to_list f.Cnf.Formula.xors) with
    | Error `Unsat -> `Unsat
    | Ok r ->
        `Reduced
          { f with Cnf.Formula.xors = Array.of_list r.Cnf.Xor_gauss.rows }

let c_blocking_clauses = Obs.Metrics.counter "bsat.blocking_clauses"
let c_enumerations = Obs.Metrics.counter "bsat.enumerations"

(* The blocking-clause enumeration loop, shared by the one-shot and
   session paths and by the enumerate and count modes. Each witness is
   re-checked against [check] and the XOR rows [layer], then blocked on
   its [blocking] projection through [add_block]. With [keep] the
   witnesses, cut down to [support] (the formula's own variables), are
   returned; without it only their number is. *)
let enum_loop ?deadline ~keep ~limit ~blocking ~check ~layer ~support ~add_block
    solver =
  Obs.Metrics.incr c_enumerations;
  let audit = Audit.is_enabled () in
  (* projected keys of the witnesses found so far: with audit mode on,
     every new witness is re-checked against the accumulated
     blocking-clause set (a repeat projection means a blocking clause
     was lost or never took effect) *)
  let seen_keys = Hashtbl.create (if audit then 64 else 1) in
  let rec loop acc found =
    if found >= limit then (acc, found, `Cut)
    else
      match Solver.solve ?deadline solver with
      | Solver.Unsat -> (acc, found, `Exhausted)
      | Solver.Unknown -> (acc, found, `Timeout)
      | Solver.Sat ->
          let m = Solver.model solver in
          verify check ~layer ~support ~found m;
          if audit then begin
            let k = Cnf.Model.key (Cnf.Model.restrict m blocking) in
            if Hashtbl.mem seen_keys k then
              Audit.fail ~invariant:"blocking-set"
                ~detail:
                  "Bsat.enumerate: witness repeats a projection already excluded by a blocking clause"
                [ ("witness",
                   String.concat " "
                     (List.map string_of_int
                        (Cnf.Model.to_dimacs (Cnf.Model.prefix support m))));
                  ("found_so_far", string_of_int found) ];
            Hashtbl.add seen_keys k ()
          end;
          (* block this witness on the projection *)
          Obs.Metrics.incr c_blocking_clauses;
          add_block (Array.map (fun v -> Cnf.Lit.make v (not (Cnf.Model.value m v))) blocking);
          loop (if keep then Cnf.Model.prefix support m :: acc else acc) (found + 1)
  in
  loop [] 0

(* Distinct witnesses compare unequal, so the sorted list does not
   depend on the order they were found in. *)
let outcome_of ~reused ~stats (models, _, status) =
  {
    models = sort_models models;
    exhausted = status = `Exhausted;
    timed_out = status = `Timeout;
    conflicts = stats.Solver.conflicts;
    stats;
    reused;
  }

let tally_of ~reused ~stats (_, count, status) =
  {
    count;
    exhausted = status = `Exhausted;
    timed_out = status = `Timeout;
    conflicts = stats.Solver.conflicts;
    stats;
    reused;
  }

(* The result of a call that needs no search: no witness exists. *)
let nothing = ([], 0, `Exhausted)

let fresh ?deadline ?blocking_vars ?(gauss = true) ~keep ~limit ~finish
    (f : Cnf.Formula.t) =
  Obs.Trace.span ~cat:"sat" "bsat.enumerate"
    ~args:[ ("limit", string_of_int limit) ]
  @@ fun () ->
  let blocking =
    match blocking_vars with
    | Some vs -> vs
    | None -> Cnf.Formula.sampling_vars f
  in
  (* The in-search Gauss engine performs its own (incremental) Jordan
     reduction as rows are added, so the static pre-pass would be
     redundant work; it remains the 2-watch path's preparation. *)
  match (if gauss then `Reduced f else reduce_xors f) with
  | `Unsat -> finish ~reused:false ~stats:Solver.stats_zero nothing
  | `Reduced reduced ->
      let solver = Solver.create ~gauss reduced in
      let res =
        enum_loop ?deadline ~keep ~limit ~blocking ~check:(Cnf.Model.compile f) ~layer:[]
          ~support:(Cnf.Model.support f.Cnf.Formula.num_vars)
          ~add_block:(Solver.add_clause solver)
          solver
      in
      finish ~reused:false ~stats:(Solver.stats solver) res

let enumerate ?deadline ?blocking_vars ?gauss ~limit f =
  fresh ?deadline ?blocking_vars ?gauss ~keep:true ~limit ~finish:outcome_of f

let count ?deadline ?blocking_vars ?gauss ~limit f =
  fresh ?deadline ?blocking_vars ?gauss ~keep:false ~limit ~finish:tally_of f

let count_upto ?deadline ?gauss ~limit f = (count ?deadline ?gauss ~limit f).count

module Session = struct
  type t = {
    formula : Cnf.Formula.t; (* original (pre-RREF) *)
    check : Cnf.Model.check; (* [formula], compiled for the witness re-check *)
    support : Cnf.Model.support; (* the formula's variables 1 .. base_vars *)
    blocking : int array;
    solver : Solver.t option; (* None: base XOR system inconsistent *)
    gauss : bool; (* XOR engine: in-search matrix vs static RREF + 2-watch *)
    mutable calls : int;
    owner : Audit.Ownership.t; (* sessions are single-domain resources *)
  }

  let create ?blocking_vars ?(gauss = true) (f : Cnf.Formula.t) =
    let blocking =
      match blocking_vars with
      | Some vs -> vs
      | None -> Cnf.Formula.sampling_vars f
    in
    let solver =
      match (if gauss then `Reduced f else reduce_xors f) with
      | `Unsat -> None
      | `Reduced reduced -> Some (Solver.create ~gauss reduced)
    in
    { formula = f; check = Cnf.Model.compile f;
      support = Cnf.Model.support f.Cnf.Formula.num_vars; blocking; solver;
      gauss; calls = 0; owner = Audit.Ownership.create "Bsat.Session" }

  let calls s = s.calls
  let formula s = s.formula
  let blocking_vars s = s.blocking

  let stats s =
    Audit.Ownership.check s.owner;
    match s.solver with
    | None -> Solver.stats_zero
    | Some solver -> Solver.stats solver

  let verify ?(xors = []) s m =
    verify s.check ~layer:xors ~support:s.support ~found:0 m

  (* Reduce a hash layer on its own. The one-shot path row-reduces the
     base and the layer as one system; reducing them separately spans
     the same solution set, so the two paths agree on every outcome
     even though their CDCL traces differ. *)
  let reduce_layer xors =
    match xors with
    | [] | [ _ ] -> `Rows xors
    | _ -> (
        match Cnf.Xor_gauss.eliminate xors with
        | Error `Unsat -> `Unsat
        | Ok r -> `Rows r.Cnf.Xor_gauss.rows)

  let run ?deadline ?(xors = []) ?(persist_blocking = false) ~keep ~limit ~finish s =
    Obs.Trace.span ~cat:"sat" "bsat.session.enumerate"
      ~args:
        [ ("limit", string_of_int limit);
          ("xor_rows", string_of_int (List.length xors)) ]
    @@ fun () ->
    Audit.Ownership.check s.owner;
    let reused = s.calls > 0 in
    s.calls <- s.calls + 1;
    match s.solver with
    | None -> finish ~reused ~stats:Solver.stats_zero nothing
    | Some solver -> (
        let before = Solver.stats solver in
        (* Gauss engine: hand the raw layer to the matrix (a layer swap
           is a matrix push/pop, not a re-RREF — the matrix reduces
           each row against its basis as it arrives). *)
        match (if s.gauss then `Rows xors else reduce_layer xors) with
        | `Unsat ->
            finish ~reused ~stats:(Solver.stats_diff (Solver.stats solver) before) nothing
        | `Rows rows ->
            (* Everything this call adds — the XOR layer and, unless
               persisted, the blocking clauses — lives in one group
               popped on the way out, leaving only learnt clauses
               about the base formula behind. *)
            Solver.push_group solver;
            let add_block block =
              if persist_blocking then Solver.add_clause solver block
              else Solver.add_group_clause solver block
            in
            let res =
              Fun.protect
                ~finally:(fun () ->
                  Obs.Trace.span ~cat:"sat" "xor_layer.pop" (fun () ->
                      Solver.pop_group solver))
                (fun () ->
                  Obs.Trace.span ~cat:"sat" "xor_layer.push"
                    ~args:[ ("rows", string_of_int (List.length rows)) ]
                    (fun () -> List.iter (Solver.add_group_xor solver) rows);
                  enum_loop ?deadline ~keep ~limit ~blocking:s.blocking ~check:s.check
                    ~layer:xors ~support:s.support ~add_block solver)
            in
            finish ~reused ~stats:(Solver.stats_diff (Solver.stats solver) before) res)

  let enumerate ?deadline ?xors ?persist_blocking ~limit s =
    run ?deadline ?xors ?persist_blocking ~keep:true ~limit ~finish:outcome_of s

  let count ?deadline ?xors ?persist_blocking ~limit s =
    run ?deadline ?xors ?persist_blocking ~keep:false ~limit ~finish:tally_of s
end
