type t = {
  vars : int array; (* sorted ascending *)
  values : bool array; (* aligned with [vars] *)
  contiguous : bool; (* vars = [|1; 2; ...; n|], enabling O(1) lookup *)
}

type support = int array (* [|1; 2; ...; n|] *)

let support n = Array.init n (fun i -> i + 1)

let of_values (s : support) values =
  if Array.length values <> Array.length s then
    invalid_arg "Model.of_values: support and values differ in length";
  { vars = s; values; contiguous = true }

let make n value = of_values (support n) (Array.init n (fun i -> value (i + 1)))
let of_bool_array a = of_values (support (Array.length a)) (Array.copy a)

let prefix (s : support) t =
  let n = Array.length s in
  if not t.contiguous || Array.length t.values < n then
    invalid_arg "Model.prefix: model does not cover the support";
  if Array.length t.values = n then t
  else { vars = s; values = Array.sub t.values 0 n; contiguous = true }

let num_vars t = Array.length t.vars

let find_slot t v =
  let rec search lo hi =
    if lo > hi then raise (Invalid_argument (Printf.sprintf "Model.value: variable %d absent" v))
    else
      let mid = (lo + hi) / 2 in
      if t.vars.(mid) = v then mid
      else if t.vars.(mid) < v then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length t.vars - 1)

let value t v =
  if t.contiguous then begin
    if v < 1 || v > Array.length t.values then
      invalid_arg (Printf.sprintf "Model.value: variable %d absent" v);
    t.values.(v - 1)
  end
  else t.values.(find_slot t v)

let restrict t vars =
  let vars = Array.copy vars in
  Array.sort Int.compare vars;
  let values = Array.map (fun v -> value t v) vars in
  let n = Array.length vars in
  let contiguous =
    n > 0 && vars.(0) = 1 && vars.(n - 1) = n
  in
  { vars; values; contiguous }

let same_support a b =
  a.vars == b.vars
  || Array.length a.vars = Array.length b.vars
     && Array.for_all2 Int.equal a.vars b.vars

let compare a b =
  if not (same_support a b) then
    invalid_arg "Model.compare: models over different variable sets";
  let n = Array.length a.values in
  let rec go i =
    if i = n then 0
    else
      match (a.values.(i), b.values.(i)) with
      | false, true -> -1
      | true, false -> 1
      | _ -> go (i + 1)
  in
  go 0

let key t =
  (* One bit per variable, packed; prefixed by the variable list so
     models over different supports never collide. *)
  let buf = Buffer.create (Array.length t.vars / 8 + 16) in
  Array.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ',') t.vars;
  Buffer.add_char buf '|';
  let byte = ref 0 and used = ref 0 in
  Array.iter
    (fun b ->
      byte := (!byte lsl 1) lor (if b then 1 else 0);
      incr used;
      if !used = 8 then begin
        Buffer.add_char buf (Char.chr !byte);
        byte := 0;
        used := 0
      end)
    t.values;
  if !used > 0 then Buffer.add_char buf (Char.chr !byte);
  Buffer.contents buf

let to_dimacs t =
  Array.to_list
    (Array.mapi (fun i v -> if t.values.(i) then v else -v) t.vars)

let satisfies f t = Formula.eval f (fun v -> value t v)

type check = {
  lits : int array; (* clause literals, clause after clause *)
  ends : int array; (* clause [i] ends (exclusive) at [ends.(i)] *)
  xors : Xor_clause.t array;
  width : int; (* the formula's variable count *)
}

let compile (f : Formula.t) =
  let ends = Array.make (Array.length f.clauses) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i c ->
      total := !total + Array.length c;
      ends.(i) <- !total)
    f.clauses;
  let lits = Array.make !total 0 in
  Array.iteri
    (fun i c ->
      let start = ends.(i) - Array.length c in
      Array.iteri (fun k (l : Lit.t) -> lits.(start + k) <- (l :> int)) c)
    f.clauses;
  { lits; ends; xors = f.xors; width = f.num_vars }

(* Reads [values] directly: a literal [2v] / [2v + 1] (see {!Lit}) is
   true iff slot [v - 1] is true / false. *)
let violation c ?(xors = []) t =
  if not t.contiguous || Array.length t.values < c.width then
    invalid_arg "Model.violation: model does not cover the formula's variables";
  let values = t.values in
  let xor_holds (x : Xor_clause.t) =
    let p = ref false in
    for k = 0 to Array.length x.vars - 1 do
      if values.(x.vars.(k) - 1) then p := not !p
    done;
    !p = x.rhs
  in
  let bad = ref (-1) and i = ref 0 and start = ref 0 in
  while !bad < 0 && !i < Array.length c.ends do
    let stop = c.ends.(!i) in
    let k = ref !start in
    while
      !k < stop
      &&
      let l = c.lits.(!k) in
      values.((l lsr 1) - 1) = (l land 1 = 1)
    do
      incr k
    done;
    if !k = stop then bad := !i;
    start := stop;
    incr i
  done;
  if !bad >= 0 then Some (`Clause !bad)
  else
    match Array.find_index (fun x -> not (xor_holds x)) c.xors with
    | Some j -> Some (`Xor j)
    | None -> (
        match List.find_index (fun x -> not (xor_holds x)) xors with
        | Some j -> Some (`Hash_row j)
        | None -> None)

let equal a b = a.vars = b.vars && a.values = b.values

let pp fmt t =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Format.pp_print_int)
    (to_dimacs t)
