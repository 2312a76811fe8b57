type result = {
  estimate : float;
  log2_estimate : float;
  exact : bool;
  core_iterations : int;
  failed_iterations : int;
  solver_stats : Sat.Solver.stats;
  reuse_hits : int;
}

type error = Unsat | Timed_out

let pivot_of_epsilon epsilon =
  if epsilon <= 0.0 then invalid_arg "Approxmc: epsilon must be positive";
  int_of_float (Float.ceil (2.0 *. Float.exp 1.5 *. ((1.0 +. (1.0 /. epsilon)) ** 2.0)))

let iterations_of_delta delta =
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Approxmc: delta in (0,1)";
  int_of_float (Float.ceil (35.0 *. (Float.log (3.0 /. delta) /. Float.log 2.0)))

let median l =
  match List.sort Float.compare l with
  | [] -> invalid_arg "median of empty list"
  | sorted ->
      let n = List.length sorted in
      List.nth sorted (n / 2)

exception Deadline

let check_deadline deadline =
  match deadline with
  | Some d when Unix.gettimeofday () > d -> raise Deadline
  | _ -> ()

type core_out = {
  co_res : (float * int) option; (* (estimate, hash size) or failure *)
  co_stats : Sat.Solver.stats;
  co_reuse : int;
}

let c_hash_draws = Obs.Metrics.counter "approxmc.hash_draws"
let h_cell_size = Obs.Metrics.histogram "approxmc.cell_size"

(* One ApproxMCCore run. With [incremental] (the default) a single
   solver session serves every hash size [i] of the try_size loop:
   only the XOR layer is swapped between sizes, so clauses learnt
   about the base formula at size i speed up size i+1. The fresh and
   session paths agree on every (count, exhausted) decision — the
   hash draws are identical and complete cells are history-independent
   — so the returned estimate is the same. *)
let core ?deadline ?(incremental = true) ?(gauss = true) ~rng ~pivot ~start f =
  Obs.Trace.span ~cat:"counting" "approxmc.core" @@ fun () ->
  let sampling = Cnf.Formula.sampling_vars f in
  let n = Array.length sampling in
  let session =
    if incremental then Some (Sat.Bsat.Session.create ~gauss f) else None
  in
  let stats = ref Sat.Solver.stats_zero in
  let reuse = ref 0 in
  let run_bsat i =
    Obs.Trace.span ~cat:"counting" "approxmc.hash_size"
      ~args:[ ("m", string_of_int i) ]
    @@ fun () ->
    Obs.Metrics.incr c_hash_draws;
    let h = Hashing.Hxor.sample rng ~vars:sampling ~m:i in
    let out =
      match session with
      | Some s ->
          Sat.Bsat.Session.count ?deadline
            ~xors:(Hashing.Hxor.constraints h) ~limit:(pivot + 1) s
      | None ->
          let g = Cnf.Formula.add_xors f (Hashing.Hxor.constraints h) in
          Sat.Bsat.count ?deadline ~gauss ~limit:(pivot + 1) g
    in
    stats := Sat.Solver.stats_add !stats out.Sat.Bsat.stats;
    if out.Sat.Bsat.reused then incr reuse;
    Obs.Metrics.observe h_cell_size (float_of_int out.Sat.Bsat.count);
    out
  in
  let rec try_size i =
    check_deadline deadline;
    if i > n then None
    else begin
      let out = run_bsat i in
      if out.Sat.Bsat.timed_out then raise Deadline;
      let count = out.Sat.Bsat.count in
      if count >= 1 && count <= pivot && out.Sat.Bsat.exhausted then
        Some (float_of_int count *. (2.0 ** float_of_int i), i)
      else try_size (i + 1)
    end
  in
  let res = try_size start in
  { co_res = res; co_stats = !stats; co_reuse = !reuse }

(* The t ApproxMCCore iterations are mutually independent XOR-hashed
   counts: iteration [i] runs on the private stream (master, i) and the
   median is taken over the index-ordered successes, so the estimate is
   a pure function of the master seed whichever domains run the
   iterations. [leapfrog] is inherently sequential (each start depends
   on the previous success), so it walks the same streams serially. *)
let iterate ?deadline ~leapfrog ?jobs ?pool ~incremental ~gauss ~rng ~pivot ~t f =
  let master = Int64.to_int (Rng.bits64 rng) land max_int in
  let run ~start index =
    let rng = Rng.of_stream ~seed:master index in
    core ?deadline ~incremental ~gauss ~rng ~pivot ~start f
  in
  let indices = Array.init t Fun.id in
  if leapfrog then begin
    let prev_i = ref 1 in
    Array.map
      (fun index ->
        let co = run ~start:(max 1 (!prev_i - 1)) index in
        Option.iter (fun (_, i) -> prev_i := i) co.co_res;
        co)
      indices
  end
  else
    let one index = run ~start:1 index in
    match (pool, jobs) with
    | Some p, _ -> Parallel.Domain_pool.map p one indices
    | None, Some jobs when jobs > 1 ->
        Parallel.Domain_pool.with_pool ~jobs (fun p ->
            Parallel.Domain_pool.map p one indices)
    | None, _ -> Array.map one indices

let count ?deadline ?(leapfrog = false) ?(incremental = true) ?(gauss = true)
    ?iterations ?jobs ?pool ~rng ~epsilon ~delta f =
  Obs.Trace.span ~cat:"counting" "approxmc.count" @@ fun () ->
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Approxmc.count: jobs must be >= 1"
  | _ -> ());
  let pivot = pivot_of_epsilon epsilon in
  let t = match iterations with Some t -> t | None -> iterations_of_delta delta in
  try
    (* Easy case: few enough witnesses to enumerate exactly. *)
    let out = Sat.Bsat.count ?deadline ~gauss ~limit:(pivot + 1) f in
    if out.Sat.Bsat.timed_out then Error Timed_out
    else begin
      let n0 = out.Sat.Bsat.count in
      if n0 = 0 then Error Unsat
      else if out.Sat.Bsat.exhausted then
        Ok
          {
            estimate = float_of_int n0;
            log2_estimate = Float.log (float_of_int n0) /. Float.log 2.0;
            exact = true;
            core_iterations = 0;
            failed_iterations = 0;
            solver_stats = out.Sat.Bsat.stats;
            reuse_hits = 0;
          }
      else begin
        let outcomes =
          iterate ?deadline ~leapfrog ?jobs ?pool ~incremental ~gauss ~rng
            ~pivot ~t f
        in
        let estimates = ref [] in
        let failures = ref 0 in
        let agg_stats = ref out.Sat.Bsat.stats in
        let reuse_hits = ref 0 in
        Array.iter
          (fun co ->
            agg_stats := Sat.Solver.stats_add !agg_stats co.co_stats;
            reuse_hits := !reuse_hits + co.co_reuse;
            match co.co_res with
            | Some (e, _) -> estimates := e :: !estimates
            | None -> incr failures)
          outcomes;
        match !estimates with
        | [] -> Error Timed_out (* all iterations failed: no usable estimate *)
        | es ->
            let est = median es in
            Ok
              {
                estimate = est;
                log2_estimate = Float.log est /. Float.log 2.0;
                exact = false;
                core_iterations = List.length es;
                failed_iterations = !failures;
                solver_stats = !agg_stats;
                reuse_hits = !reuse_hits;
              }
      end
    end
  with Deadline -> Error Timed_out
