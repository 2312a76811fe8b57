(* Tests for the incremental solver-session layer: assumption solving,
   retractable constraint groups, and the differential guarantee that
   the session paths of BSAT, ApproxMC and UniGen are observationally
   equal to the fresh-solver paths. *)

let random_lits rng ~num_vars =
  List.init
    (1 + Rng.int rng 3)
    (fun _ -> Cnf.Lit.make (1 + Rng.int rng num_vars) (Rng.bool rng))

(* ------------------------------------------------------------------ *)
(* Handcrafted group / assumption behaviours *)

let test_failed_assumptions () =
  (* 1 ∧ (¬1 ∨ 2), assume ¬2: unsatisfiable by assumption only *)
  let f =
    Cnf.Formula.create ~num_vars:2
      [ Cnf.Clause.of_dimacs [ 1 ]; Cnf.Clause.of_dimacs [ -1; 2 ] ]
  in
  (* checked_solve certifies the assumption-UNSAT against
     f + assumption units with a RUP refutation *)
  let r, s = Test_util.Check.checked_solve ~assumptions:[ Cnf.Lit.neg 2 ] f in
  (match r with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat under ~assumptions:[-2]");
  let failed = Sat.Solver.failed_assumptions s in
  Alcotest.(check bool) "failed set nonempty" true (failed <> []);
  let units = List.map (fun l -> Cnf.Clause.of_list [ l ]) failed in
  Alcotest.(check bool) "formula + failed core unsat" false
    (Sat.Brute.is_sat (Cnf.Formula.add_clauses f units));
  (* the solver is not broken: a plain solve still succeeds *)
  Alcotest.(check bool) "solver survives" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_pop_rescinds_group_unsat () =
  let f = Cnf.Formula.create ~num_vars:3 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let s = Sat.Solver.create f in
  Sat.Solver.push_group s;
  Sat.Solver.add_group_clause s [| Cnf.Lit.pos 3 |];
  Sat.Solver.add_group_clause s [| Cnf.Lit.neg 3 |];
  Alcotest.(check bool) "group contradiction" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.pop_group s;
  Alcotest.(check bool) "unsat rescinded by pop" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_base_unit_shadowed_by_group () =
  (* a base unit added while a group assignment contradicts it must
     survive the pop (the lost_units revival path) *)
  let f = Cnf.Formula.create ~num_vars:2 [] in
  let s = Sat.Solver.create f in
  Sat.Solver.push_group s;
  Sat.Solver.add_group_clause s [| Cnf.Lit.neg 1 |];
  Alcotest.(check bool) "group unit sat" true
    (Sat.Solver.solve s = Sat.Solver.Sat);
  Sat.Solver.add_clause s [| Cnf.Lit.pos 1 |];
  Alcotest.(check bool) "base vs group contradiction" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.pop_group s;
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
      Alcotest.(check bool) "base unit survives pop" true
        (Cnf.Model.value (Sat.Solver.model s) 1)
  | _ -> Alcotest.fail "expected Sat after pop")

(* ------------------------------------------------------------------ *)
(* Property (a): solve ~assumptions = solving formula + unit clauses *)

let prop_assumptions_agree =
  QCheck2.Test.make ~count:300
    ~name:"solve ~assumptions = formula + unit clauses"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100_000))
    (fun (spec, aseed) ->
      let f = Test_util.Gen.build_spec spec in
      let rng = Rng.create aseed in
      let assumptions =
        List.init (Rng.int rng 5) (fun _ ->
            Cnf.Lit.make (1 + Rng.int rng f.Cnf.Formula.num_vars) (Rng.bool rng))
      in
      let units = List.map (fun l -> Cnf.Clause.of_list [ l ]) assumptions in
      let expected = Sat.Brute.is_sat (Cnf.Formula.add_clauses f units) in
      match Test_util.Check.checked_solve ~assumptions f with
      | Sat.Solver.Sat, s ->
          expected
          && Cnf.Model.satisfies f (Sat.Solver.model s)
          && List.for_all
               (fun l ->
                 Cnf.Model.value (Sat.Solver.model s) (Cnf.Lit.var l)
                 = Cnf.Lit.sign l)
               assumptions
      | Sat.Solver.Unsat, s ->
          (not expected)
          &&
          (* when the formula alone is satisfiable the failed-assumption
             core must be a genuine reason for the refusal *)
          if Sat.Brute.is_sat f then
            let failed = Sat.Solver.failed_assumptions s in
            failed <> []
            && not
                 (Sat.Brute.is_sat
                    (Cnf.Formula.add_clauses f
                       (List.map (fun l -> Cnf.Clause.of_list [ l ]) failed)))
          else true
      | Sat.Solver.Unknown, _ -> false)

(* ------------------------------------------------------------------ *)
(* Property (b): after pop_group the solver answers as if the group
   had never been pushed — across repeated push/solve/pop rounds *)

let prop_pop_restores =
  QCheck2.Test.make ~count:250 ~name:"pop_group restores pre-push behaviour"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_bound 100_000))
    (fun (spec, gseed1, gseed2) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let base_sat = Sat.Brute.is_sat f in
      let s = Sat.Solver.create f in
      let base_matches () =
        match Sat.Solver.solve s with
        | Sat.Solver.Sat ->
            base_sat && Cnf.Model.satisfies f (Sat.Solver.model s)
        | Sat.Solver.Unsat -> not base_sat
        | Sat.Solver.Unknown -> false
      in
      let layer_round gseed =
        let rng = Rng.create gseed in
        let lits =
          List.init (1 + Rng.int rng 5) (fun _ -> random_lits rng ~num_vars:nv)
        in
        let xor = Test_util.Gen.random_xor rng ~num_vars:nv in
        let g =
          Cnf.Formula.add_xors
            (Cnf.Formula.add_clauses f (List.map Cnf.Clause.of_list lits))
            [ xor ]
        in
        Sat.Solver.push_group s;
        List.iter (fun c -> Sat.Solver.add_group_clause s (Array.of_list c)) lits;
        Sat.Solver.add_group_xor s xor;
        let expected = Sat.Brute.is_sat g in
        let ok =
          match Sat.Solver.solve s with
          | Sat.Solver.Sat ->
              expected && Cnf.Model.satisfies g (Sat.Solver.model s)
          | Sat.Solver.Unsat -> not expected
          | Sat.Solver.Unknown -> false
        in
        Sat.Solver.pop_group s;
        ok
      in
      base_matches () && layer_round gseed1 && base_matches ()
      && layer_round gseed2 && base_matches ())

(* ------------------------------------------------------------------ *)
(* Property (c): blocking clauses persisted into the base survive
   XOR-layer swaps — no witness is ever returned twice, and the
   persisted chunks reconstruct the exact witness set *)

let small_spec =
  QCheck2.Gen.(
    map
      (fun (seed, nv, nc, nx) -> (seed, 1 + nv, nc, nx))
      (tup4 (int_bound 1_000_000) (int_bound 6) (int_bound 18) (int_bound 3)))

let prop_blocking_survives_swaps =
  QCheck2.Test.make ~count:120
    ~name:"persisted blocking clauses survive xor-layer swaps"
    QCheck2.Gen.(pair small_spec (int_bound 100_000))
    (fun (spec, xseed) ->
      let f = Test_util.Gen.build_spec spec in
      let proj = Cnf.Formula.sampling_vars f in
      let total = Sat.Brute.count_projected f proj in
      let full = Sat.Bsat.enumerate ~limit:(total + 1) f in
      let sess = Sat.Bsat.Session.create f in
      let rng = Rng.create xseed in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      let finished = ref false in
      let rounds = ref 0 in
      while (not !finished) && !rounds <= (total / 3) + 2 do
        incr rounds;
        let out = Sat.Bsat.Session.enumerate ~persist_blocking:true ~limit:3 sess in
        List.iter
          (fun m ->
            let k = Cnf.Model.key m in
            if Hashtbl.mem seen k then ok := false;
            Hashtbl.replace seen k ())
          out.Sat.Bsat.models;
        if out.Sat.Bsat.models = [] then finished := true
        else begin
          (* swap in a random XOR layer between persisting chunks: its
             witnesses must respect the blocking clauses added so far
             and the layer must vanish again afterwards *)
          let xors = [ Test_util.Gen.random_xor rng ~num_vars:f.Cnf.Formula.num_vars ] in
          let layer = Sat.Bsat.Session.enumerate ~xors ~limit:(total + 1) sess in
          let g = Cnf.Formula.add_xors f xors in
          List.iter
            (fun m ->
              if Hashtbl.mem seen (Cnf.Model.key m) then ok := false;
              if not (Cnf.Model.satisfies g m) then ok := false)
            layer.Sat.Bsat.models
        end
      done;
      !ok && !finished
      && Hashtbl.length seen = total
      && List.for_all
           (fun m -> Hashtbl.mem seen (Cnf.Model.key m))
           full.Sat.Bsat.models)

(* ------------------------------------------------------------------ *)
(* Differential guard: session enumeration equals the fresh path,
   layer after layer from one warm session *)

let prop_session_matches_fresh =
  QCheck2.Test.make ~count:200 ~name:"session enumerate = fresh enumerate"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_range 1 8))
    (fun (spec, xseed, limit) ->
      let f = Test_util.Gen.build_spec spec in
      let rng = Rng.create xseed in
      let sess = Sat.Bsat.Session.create f in
      let ok = ref true in
      for _ = 1 to 3 do
        let xors =
          List.init (Rng.int rng 3) (fun _ ->
              Test_util.Gen.random_xor rng ~num_vars:f.Cnf.Formula.num_vars)
        in
        let fresh = Sat.Bsat.enumerate ~limit (Cnf.Formula.add_xors f xors) in
        let inc = Sat.Bsat.Session.enumerate ~xors ~limit sess in
        if fresh.Sat.Bsat.exhausted <> inc.Sat.Bsat.exhausted then ok := false;
        if List.length fresh.Sat.Bsat.models <> List.length inc.Sat.Bsat.models
        then ok := false;
        (* the witness lists are canonical (hence comparable) exactly
           when the cell was enumerated completely *)
        if
          fresh.Sat.Bsat.exhausted
          && List.map Cnf.Model.key fresh.Sat.Bsat.models
             <> List.map Cnf.Model.key inc.Sat.Bsat.models
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Model order: the monomorphic comparator sorts exactly as the key
   strings it replaced, without building them *)

let sign x = Int.compare x 0

let prop_model_compare_matches_key =
  QCheck2.Test.make ~count:500 ~name:"Model.compare has the sign of key order"
    QCheck2.Gen.(tup3 (int_range 1 40) (int_bound 1_000_000) bool)
    (fun (n, seed, same) ->
      let rng = Rng.create seed in
      let draw () = Cnf.Model.make n (fun _ -> Rng.bool rng) in
      let a = draw () in
      let b = if same then a else draw () in
      (* half the cases on a sparse (non-contiguous) support *)
      let a, b =
        if Rng.bool rng then (a, b)
        else
          let vars =
            Array.of_list
              (List.filter (fun _ -> Rng.bool rng) (List.init n (fun i -> i + 1)))
          in
          (Cnf.Model.restrict a vars, Cnf.Model.restrict b vars)
      in
      sign (Cnf.Model.compare a b)
      = sign (String.compare (Cnf.Model.key a) (Cnf.Model.key b))
      && sign (Cnf.Model.compare a b) = - sign (Cnf.Model.compare b a))

let test_model_compare_rejects_mixed_supports () =
  let raises a b =
    match Cnf.Model.compare a b with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let m3 = Cnf.Model.make 3 (fun _ -> true) and m4 = Cnf.Model.make 4 (fun _ -> true) in
  Alcotest.(check bool) "1..3 vs 1..4" true (raises m3 m4);
  Alcotest.(check bool) "{1,2} vs {1,3}" true
    (raises (Cnf.Model.restrict m4 [| 1; 2 |]) (Cnf.Model.restrict m4 [| 1; 3 |]));
  Alcotest.(check bool) "{1,2,3} vs 1..3 is one support" false
    (raises (Cnf.Model.restrict m4 [| 1; 2; 3 |]) m3)

(* ------------------------------------------------------------------ *)
(* Count-only enumeration: the same blocking loop without the models *)

let prop_count_matches_enumerate =
  QCheck2.Test.make ~count:200 ~name:"bsat count = length of enumerate"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_range 1 8))
    (fun (spec, xseed, limit) ->
      let f = Test_util.Gen.build_spec spec in
      let rng = Rng.create xseed in
      let agree (t : Sat.Bsat.tally) (o : Sat.Bsat.outcome) =
        t.count = List.length o.models
        && t.exhausted = o.exhausted && t.timed_out = o.timed_out
      in
      let counting = Sat.Bsat.Session.create f in
      let listing = Sat.Bsat.Session.create f in
      let ok = ref true in
      for _ = 1 to 3 do
        let xors =
          List.init (Rng.int rng 3) (fun _ ->
              Test_util.Gen.random_xor rng ~num_vars:f.Cnf.Formula.num_vars)
        in
        let g = Cnf.Formula.add_xors f xors in
        if not (agree (Sat.Bsat.count ~limit g) (Sat.Bsat.enumerate ~limit g)) then
          ok := false;
        if
          not
            (agree
               (Sat.Bsat.Session.count ~xors ~limit counting)
               (Sat.Bsat.Session.enumerate ~xors ~limit listing))
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The flat witness re-check: it agrees with [Model.satisfies] on the
   base formula plus the hash layer, and a corrupted witness trips the
   model-audit invariant *)

let audit_invariant f =
  match f () with
  | () -> None
  | exception Audit.Violation r -> Some r.Audit.invariant

let prop_verify_matches_satisfies =
  QCheck2.Test.make ~count:300 ~name:"session verify = Model.satisfies"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100_000))
    (fun (spec, mseed) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create mseed in
      let xors = List.init (Rng.int rng 3) (fun _ -> Test_util.Gen.random_xor rng ~num_vars:nv) in
      let sess = Sat.Bsat.Session.create f in
      let m = Cnf.Model.make nv (fun _ -> Rng.bool rng) in
      let expected = Cnf.Model.satisfies (Cnf.Formula.add_xors f xors) m in
      audit_invariant (fun () -> Sat.Bsat.Session.verify ~xors sess m)
      = if expected then None else Some "model-audit")

let test_corrupted_witness_trips_audit () =
  (* x1 ∧ (x2 ⊕ x3 = 1), hash layer x3 ⊕ x4 = 0: flipping x1 breaks a
     clause, x2 the base XOR, x4 only the layer row *)
  let f =
    Cnf.Formula.create_with_xors ~num_vars:4
      [ Cnf.Clause.of_dimacs [ 1 ] ]
      [ Cnf.Xor_clause.make [ 2; 3 ] true ]
  in
  let xors = [ Cnf.Xor_clause.make [ 3; 4 ] false ] in
  let sess = Sat.Bsat.Session.create f in
  let out = Sat.Bsat.Session.enumerate ~xors ~limit:10 sess in
  Alcotest.(check int) "two witnesses" 2 (List.length out.Sat.Bsat.models);
  List.iter
    (fun m ->
      Alcotest.(check (option string)) "witness passes" None
        (audit_invariant (fun () -> Sat.Bsat.Session.verify ~xors sess m));
      List.iter
        (fun flip ->
          let bad =
            Cnf.Model.make 4 (fun v ->
                if v = flip then not (Cnf.Model.value m v) else Cnf.Model.value m v)
          in
          Alcotest.(check (option string))
            (Printf.sprintf "flipped x%d" flip)
            (Some "model-audit")
            (audit_invariant (fun () -> Sat.Bsat.Session.verify ~xors sess bad)))
        [ 1; 2; 4 ])
    out.Sat.Bsat.models

(* ------------------------------------------------------------------ *)
(* End-to-end differential: ApproxMC and UniGen give bit-identical
   results with and without incremental sessions *)

let test_approxmc_incremental_equal () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        Test_util.Gen.random_formula_with_xors rng ~num_vars:10 ~num_clauses:20
          ~num_xors:2 ~width:3
      in
      let run incremental =
        match
          Counting.Approxmc.count ~incremental ~iterations:5
            ~rng:(Rng.create (seed + 1)) ~epsilon:0.8 ~delta:0.2 f
        with
        | Ok r -> Some r.Counting.Approxmc.estimate
        | Error _ -> None
      in
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "seed %d" seed)
        (run false) (run true))
    [ 3; 17; 42; 101 ]

let test_unigen_incremental_equal () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        Test_util.Gen.random_formula_with_xors rng ~num_vars:12 ~num_clauses:18
          ~num_xors:0 ~width:3
      in
      let run incremental =
        match
          Sampling.Unigen.prepare ~incremental ~count_iterations:5
            ~rng:(Rng.create (seed + 1)) ~epsilon:6.0 f
        with
        | Error _ -> [ "<prepare-fail>" ]
        | Ok p ->
            Sampling.Unigen.sample_batch ~max_attempts:10 ~seed:99 p 10
            |> Array.to_list
            |> List.map (function
                 | Ok m -> Cnf.Model.key m
                 | Error _ -> "<fail>")
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        (run false) (run true))
    [ 5; 23; 77 ]

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_assumptions_agree;
      prop_pop_restores;
      prop_blocking_survives_swaps;
      prop_session_matches_fresh;
      prop_model_compare_matches_key;
      prop_count_matches_enumerate;
      prop_verify_matches_satisfies;
    ]

let () =
  Alcotest.run "session"
    [
      ( "groups",
        [
          Alcotest.test_case "failed assumptions" `Quick test_failed_assumptions;
          Alcotest.test_case "pop rescinds group unsat" `Quick
            test_pop_rescinds_group_unsat;
          Alcotest.test_case "base unit shadowed by group" `Quick
            test_base_unit_shadowed_by_group;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "model compare rejects mixed supports" `Quick
            test_model_compare_rejects_mixed_supports;
          Alcotest.test_case "corrupted witness trips model-audit" `Quick
            test_corrupted_witness_trips_audit;
        ] );
      ("properties", qcheck_cases);
      ( "differential",
        [
          Alcotest.test_case "approxmc incremental = fresh" `Quick
            test_approxmc_incremental_equal;
          Alcotest.test_case "unigen incremental = fresh" `Quick
            test_unigen_incremental_equal;
        ] );
    ]
