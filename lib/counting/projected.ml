type result = Exact of int | At_least of int

let count ?deadline ?(limit = 1 lsl 20) f vars =
  let out = Sat.Bsat.count ?deadline ~blocking_vars:vars ~limit f in
  if out.Sat.Bsat.exhausted then Exact out.Sat.Bsat.count
  else At_least out.Sat.Bsat.count

let count_on_sampling_set ?deadline ?limit f =
  count ?deadline ?limit f (Cnf.Formula.sampling_vars f)
