(* Randomised differential tests: cross-check the CDCL solver, the
   bounded enumerator, the exact counter and the parallel batch engine
   against the brute-force oracle on random small CNF+XOR formulas.
   QCheck2 shrinks any failing (seed, size) specification to a minimal
   reproduction. *)

let build = Test_util.Gen.build_spec

(* CDCL verdict matches brute force AND a SAT verdict comes with a
   model that actually satisfies the formula (the existing sat suite
   checks verdicts only). *)
let prop_solver_verdict_and_model =
  QCheck2.Test.make ~count:300
    ~name:"cdcl verdict = brute verdict, and SAT models satisfy"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = build spec in
      (* checked_solve additionally certifies pure-CNF UNSAT verdicts
         with a RUP refutation *)
      match Test_util.Check.checked_solve f with
      | Sat.Solver.Sat, s ->
          Sat.Brute.is_sat f && Cnf.Model.satisfies f (Sat.Solver.model s)
      | Sat.Solver.Unsat, _ -> not (Sat.Brute.is_sat f)
      | Sat.Solver.Unknown, _ -> false)

(* Exact counting under assumption literals vs brute-force filtering. *)
let prop_count_restricted_matches_brute =
  QCheck2.Test.make ~count:150
    ~name:"exact count_restricted = brute filtered count"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100000))
    (fun (spec, aux) ->
      let f = build spec in
      let nv = f.Cnf.Formula.num_vars in
      let v1 = 1 + (aux mod nv) in
      let v2 = 1 + (aux / nv mod nv) in
      let assumptions =
        if v1 = v2 then [ Cnf.Lit.make v1 (aux land 1 = 0) ]
        else
          [ Cnf.Lit.make v1 (aux land 1 = 0); Cnf.Lit.make v2 (aux land 2 = 0) ]
      in
      let counted = Counting.Exact_counter.count_restricted f assumptions in
      let expected =
        List.length
          (List.filter
             (fun m ->
               List.for_all
                 (fun lit ->
                   Cnf.Model.value m (Cnf.Lit.var lit) = Cnf.Lit.sign lit)
                 assumptions)
             (Sat.Brute.solutions f))
      in
      counted = expected)

(* Bounded enumeration's count_upto caps exactly at the limit. *)
let prop_count_upto_caps_at_limit =
  QCheck2.Test.make ~count:150 ~name:"bsat count_upto = min(brute count, limit)"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_range 1 40))
    (fun (spec, limit) ->
      let f = build spec in
      Sat.Bsat.count_upto ~limit f = min (Sat.Brute.count f) limit)

(* The parallel batch engine is execution-order independent: jobs:1
   and jobs:2 produce the same outcome sequence on arbitrary (easy and
   hashed case) satisfiable formulas. *)
let prop_batch_jobs_differential =
  QCheck2.Test.make ~count:20 ~name:"sample_batch jobs:1 = jobs:2"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 3 7))
    (fun (seed, num_vars) ->
      (* free formula over num_vars variables: always satisfiable;
         num_vars >= 7 exercises the hashed path (2^7 > hiThresh) *)
      let f = Cnf.Formula.create ~num_vars [] in
      match
        Sampling.Unigen.prepare ~count_iterations:5 ~rng:(Rng.create seed)
          ~epsilon:6.0 f
      with
      | Error _ -> false
      | Ok p ->
          let run jobs =
            Array.map
              (function Ok m -> Cnf.Model.key m | Error _ -> "<fail>")
              (Sampling.Unigen.sample_batch ~max_attempts:10 ~jobs ~seed p 6)
          in
          run 1 = run 2)

(* XOR engine differential: in-search Gauss (production) against the
   static-RREF + parity 2-watch reference, reachable only through the
   [~gauss] argument. Witness streams and estimates must be identical;
   check.sh reruns this suite with the invariant sanitizer live. The
   second formula is hashed and carries base XORs, so layer pushes and
   pops run against a live base matrix. *)
let engine_formulas =
  [
    ( "engine.cnf",
      "p cnf 8 4\nc ind 1 2 3 4 5 0\n1 2 3 0\n-2 4 0\nx 5 6 0\nx 1 3 7 0\n" );
    ( "hashed with base xors",
      "p cnf 12 4\nc ind 1 2 3 4 5 6 7 8 9 10 0\n1 2 3 0\n-4 5 6 0\n\
       x 5 7 9 11 0\nx 2 8 12 0\n" );
  ]

let test_xor_engine_differential () =
  List.iter
    (fun (name, text) ->
      let f = Cnf.Dimacs.parse_string text in
      let witnesses ~gauss =
        match
          Sampling.Unigen.prepare ~gauss ~rng:(Rng.create 11) ~epsilon:6.0 f
        with
        | Error _ -> Alcotest.failf "%s: preparation failed" name
        | Ok p ->
            Array.to_list
              (Array.map
                 (function Ok m -> Cnf.Model.to_dimacs m | Error _ -> [])
                 (Sampling.Unigen.sample_batch ~jobs:2 ~seed:11 p 8))
      in
      let estimate ~gauss =
        match
          Counting.Approxmc.count ~gauss ~rng:(Rng.create 11) ~epsilon:0.8
            ~delta:0.2 f
        with
        | Ok r -> r.Counting.Approxmc.estimate
        | Error _ -> Alcotest.failf "%s: count failed" name
      in
      let gauss = witnesses ~gauss:true in
      Alcotest.(check int) (name ^ ": eight witnesses") 8
        (List.length (List.filter (( <> ) []) gauss));
      Alcotest.(check (list (list int))) (name ^ ": witnesses") gauss
        (witnesses ~gauss:false);
      Alcotest.(check (float 0.0)) (name ^ ": estimate") (estimate ~gauss:true)
        (estimate ~gauss:false))
    engine_formulas

let () =
  Alcotest.run "differential"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_solver_verdict_and_model;
            prop_count_restricted_matches_brute;
            prop_count_upto_caps_at_limit;
            prop_batch_jobs_differential;
          ] );
      ( "xor",
        [
          Alcotest.test_case "gauss = 2-watch reference" `Quick
            test_xor_engine_differential;
        ] );
    ]
