open! Relalg
open Resilience

type db_case = {
  sem : Problem.semantics;
  q : Cq.t;
  db : Database.t;
}

type lp_case = {
  frozen : Lp.Frozen.t;
  deltas : Lp.Frozen.Delta.t list;
}

type shape = Db of db_case | Lp of lp_case

type case = {
  seed : int;
  profile : string;
  shape : shape;
}

let sampler rng = { Datagen.Random_inst.sample = (fun b -> Splitmix.int rng b) }

(* [List.init] does not guarantee an application order; every draw sequence
   below goes through this left-to-right builder instead. *)
let init_seq n f =
  let rec loop acc i = if i = n then List.rev acc else loop (f i :: acc) (i + 1) in
  loop [] 0

let sem_of rng = if Splitmix.bool rng then Problem.Set else Problem.Bag

(* ----- database profiles -------------------------------------------------- *)

let base_queries () =
  [
    Queries.q2_chain ();
    Queries.q3_chain ();
    Queries.q2_star ();
    Queries.q_triangle ();
    Queries.q_confluence ();
  ]

let self_join_queries () =
  [
    Queries.q2_chain_sj ();
    Queries.q_conf_sj ();
    Queries.q_chain_b_sj ();
    Queries.q_chain_abc_sj ();
    Queries.q_z6 ();
  ]

let instance rng q ~domain ~count ~max_bag ~exo_pct =
  let s = sampler rng in
  let specs = Datagen.Random_inst.specs_of_query q ~count in
  let db = Datagen.Random_inst.db_s s ~domain ~max_bag specs in
  if exo_pct > 0 then Datagen.Random_inst.mark_exogenous s ~pct:exo_pct db;
  db

(* The everyday shape: any query, small domain, light bags, some exogenous
   tuples. *)
let gen_mixed rng =
  let q = Splitmix.choose rng (base_queries () @ self_join_queries ()) in
  let db =
    instance rng q
      ~domain:(Splitmix.in_range rng 2 4)
      ~count:(Splitmix.in_range rng 3 10)
      ~max_bag:2 ~exo_pct:20
  in
  { sem = sem_of rng; q; db }

(* Bag semantics with real multiplicities: objective weights >> 1. *)
let gen_bag_heavy rng =
  let q = Splitmix.choose rng (base_queries ()) in
  let db =
    instance rng q
      ~domain:(Splitmix.in_range rng 2 3)
      ~count:(Splitmix.in_range rng 3 8)
      ~max_bag:(Splitmix.in_range rng 3 6)
      ~exo_pct:10
  in
  { sem = Problem.Bag; q; db }

(* Self-joins: one tuple serving several atoms of a witness. *)
let gen_self_join rng =
  let q = Splitmix.choose rng (self_join_queries ()) in
  let db =
    instance rng q
      ~domain:(Splitmix.in_range rng 2 3)
      ~count:(Splitmix.in_range rng 2 8)
      ~max_bag:2 ~exo_pct:15
  in
  { sem = sem_of rng; q; db }

(* Exogeneity-heavy: most deletions are forbidden, No_contingency and
   forced-deletion presolve fixes are common. *)
let gen_exo_heavy rng =
  let q = Splitmix.choose rng (base_queries () @ self_join_queries ()) in
  let db =
    instance rng q
      ~domain:(Splitmix.in_range rng 2 4)
      ~count:(Splitmix.in_range rng 3 10)
      ~max_bag:2 ~exo_pct:60
  in
  { sem = sem_of rng; q; db }

(* One relation left empty: the query is false, every solver must agree on
   the trivial verdict. *)
let gen_empty_rel rng =
  let q = Splitmix.choose rng (base_queries ()) in
  let s = sampler rng in
  let specs = Datagen.Random_inst.specs_of_query q ~count:(Splitmix.in_range rng 2 6) in
  let hole = Splitmix.int rng (List.length specs) in
  let specs =
    List.mapi
      (fun i (sp : Datagen.Random_inst.spec) -> if i = hole then { sp with count = 0 } else sp)
      specs
  in
  let db = Datagen.Random_inst.db_s s ~domain:(Splitmix.in_range rng 2 3) specs in
  { sem = sem_of rng; q; db }

(* Tiny domain: many valuations collapse onto the same tuple set, so the
   encoder sees duplicate witnesses and the presolver duplicate rows. *)
let gen_dup_witness rng =
  let q = Splitmix.choose rng (base_queries () @ self_join_queries ()) in
  let domain = Splitmix.in_range rng 1 2 in
  let db =
    instance rng q ~domain ~count:(Splitmix.in_range rng 2 6)
      ~max_bag:(Splitmix.in_range rng 1 2)
      ~exo_pct:10
  in
  { sem = sem_of rng; q; db }

(* Uniform weights on a dense-ish instance: the dual ratio test is full of
   exact ties, the regime where pivot-order bugs surface. *)
let gen_dense_ties rng =
  let q = if Splitmix.bool rng then Queries.q2_chain () else Queries.q2_star () in
  let db =
    instance rng q ~domain:2 ~count:(Splitmix.in_range rng 6 12) ~max_bag:1 ~exo_pct:0
  in
  { sem = Problem.Set; q; db }

(* ----- LP profiles --------------------------------------------------------- *)

(* A random covering-family program: binary tuple-like variables, unit
   coefficients, >= 1 rows — the shape every encoder emits — plus the
   corners: zero upper bounds (fixed-empty variables), continuous columns,
   tied costs. *)
let covering_model rng ~nvars ~nrows ~tie_costs =
  let m = Lp.Model.create () in
  let vars =
    Array.of_list
      (init_seq nvars (fun _ ->
           let obj = if tie_costs then 1 else Splitmix.in_range rng 1 5 in
           if Splitmix.chance rng 1 10 then
             (* zero upper bound: the variable exists but may never move. *)
             Lp.Model.add_var ~upper:0 ~obj m
           else if Splitmix.chance rng 1 5 then
             (* continuous relaxation column *)
             Lp.Model.add_var ~upper:1 ~obj m
           else Lp.Model.add_var ~integer:true ~upper:1 ~obj m))
  in
  for _ = 1 to nrows do
    let width = Splitmix.in_range rng 1 3 in
    let picked =
      init_seq width (fun _ -> vars.(Splitmix.int rng nvars)) |> List.sort_uniq compare
    in
    Lp.Model.add_constr m (List.map (fun v -> (v, 1)) picked) Lp.Model.Geq 1
  done;
  (Lp.Frozen.of_model m, vars)

let random_delta rng vars =
  Array.fold_left
    (fun d v ->
      match Splitmix.int rng 4 with
      | 0 -> Lp.Frozen.Delta.fix_zero v d
      | 1 -> Lp.Frozen.Delta.force_one v d
      | _ -> d)
    Lp.Frozen.Delta.empty vars

(* A release chain: each delta derives from the previous one by fixing,
   re-fixing or releasing 1-5 variables, with now and then a fresh
   whole-model delta — the small steps a warm session installs
   incrementally, interleaved with the wholesale changes it installs in
   full. *)
let release_chain rng vars steps =
  let nvars = Array.length vars in
  let prev = ref Lp.Frozen.Delta.empty in
  init_seq steps (fun _ ->
      (prev :=
         if Splitmix.chance rng 1 4 then random_delta rng vars
         else begin
           let d = ref !prev in
           for _ = 1 to Splitmix.in_range rng 1 5 do
             let v = vars.(Splitmix.int rng nvars) in
             d :=
               match Splitmix.int rng 3 with
               | 0 -> Lp.Frozen.Delta.release v !d
               | 1 -> Lp.Frozen.Delta.fix_zero v !d
               | _ -> Lp.Frozen.Delta.force_one v !d
           done;
           !d
         end);
      !prev)

(* Short delta chains over small programs: every delta kind against every
   warm basis shape. *)
let gen_lp_cover rng =
  let nvars = Splitmix.in_range rng 4 9 in
  let nrows = Splitmix.in_range rng 3 8 in
  let frozen, vars = covering_model rng ~nvars ~nrows ~tie_costs:(Splitmix.bool rng) in
  let steps = Splitmix.in_range rng 4 16 in
  { frozen; deltas = release_chain rng vars steps }

(* Long warm batches over a mid-size program: hundreds of solves against one
   session, the regime where inverse drift accumulates (the PR 2 eta-drift
   bug produced a false Infeasible after ~100 warm solves).  Unlike the
   covering profile this one mixes coefficient magnitudes and row senses,
   so the basis is less well-conditioned and eta-drift grows fast enough
   for the warm-vs-cold oracle to see it. *)
let gen_lp_drift rng =
  let nvars = Splitmix.in_range rng 20 36 in
  let nrows = Splitmix.in_range rng 18 36 in
  let m = Lp.Model.create () in
  let vars =
    Array.of_list
      (init_seq nvars (fun _ ->
           let obj = Splitmix.in_range rng 1 9 in
           let upper = if Splitmix.chance rng 1 6 then Splitmix.in_range rng 2 4 else 1 in
           if Splitmix.chance rng 1 4 && upper = 1 then
             Lp.Model.add_var ~integer:true ~upper ~obj m
           else Lp.Model.add_var ~upper ~obj m))
  in
  for _ = 1 to nrows do
    let width = Splitmix.in_range rng 2 6 in
    let picked =
      init_seq width (fun _ -> (vars.(Splitmix.int rng nvars), Splitmix.in_range rng 1 6))
      |> List.sort_uniq compare
    in
    let cap = List.fold_left (fun a (_, c) -> a + c) 0 picked in
    if Splitmix.chance rng 1 4 then
      Lp.Model.add_constr m picked Lp.Model.Leq (Splitmix.in_range rng 1 cap)
    else Lp.Model.add_constr m picked Lp.Model.Geq (Splitmix.in_range rng 1 (max 1 (cap / 2)))
  done;
  let frozen = Lp.Frozen.of_model m in
  let steps = Splitmix.in_range rng 300 600 in
  { frozen; deltas = release_chain rng vars steps }

(* Row/column appends over a covering base: the incremental-service fast
   path.  The deltas form a monotone append chain — each step derives from
   the previous via [append_col]/[append_row], so a warm session absorbs
   increments ([extends_appends]) while a cold rebuild re-extends from the
   base.  Appended columns keep obj >= 0 (the warm-absorb contract) and
   stay binary when integer; appended rows may reference appended columns.
   Bound fixes ride along but only ever touch base variables. *)
let gen_lp_append rng =
  let nvars = Splitmix.in_range rng 3 7 in
  let nrows = Splitmix.in_range rng 2 6 in
  let frozen, vars = covering_model rng ~nvars ~nrows ~tie_costs:(Splitmix.bool rng) in
  let steps = Splitmix.in_range rng 3 10 in
  let total = ref (Lp.Frozen.num_vars frozen) in
  let chain = ref Lp.Frozen.Delta.empty in
  let deltas =
    init_seq steps (fun i ->
        if Splitmix.chance rng 2 3 then begin
          chain :=
            Lp.Frozen.Delta.append_col
              ~integer:(Splitmix.bool rng)
              ~upper:1
              ~name:(Printf.sprintf "a%d" i)
              ~obj:(Splitmix.int rng 5)
              !chain;
          incr total
        end;
        if Splitmix.chance rng 3 4 then begin
          let width = Splitmix.in_range rng 1 3 in
          let picked =
            init_seq width (fun _ -> Splitmix.int rng !total) |> List.sort_uniq compare
          in
          chain :=
            Lp.Frozen.Delta.append_row Lp.Model.Geq 1
              (List.map (fun v -> (v, 1)) picked)
              !chain
        end;
        if Splitmix.chance rng 1 4 then begin
          let v = vars.(Splitmix.int rng (Array.length vars)) in
          if Splitmix.bool rng then Lp.Frozen.Delta.fix_zero v !chain
          else Lp.Frozen.Delta.force_one v !chain
        end
        else !chain)
  in
  { frozen; deltas }

(* ----- profile table ------------------------------------------------------- *)

let table =
  [
    ("mixed", 4, `Db gen_mixed);
    ("bag_heavy", 3, `Db gen_bag_heavy);
    ("self_join", 3, `Db gen_self_join);
    ("exo_heavy", 2, `Db gen_exo_heavy);
    ("empty_rel", 1, `Db gen_empty_rel);
    ("dup_witness", 2, `Db gen_dup_witness);
    ("dense_ties", 1, `Db gen_dense_ties);
    ("lp_cover", 2, `Lp gen_lp_cover);
    ("lp_drift", 1, `Lp gen_lp_drift);
    ("lp_append", 2, `Lp gen_lp_append);
  ]

let profiles = List.map (fun (n, _, _) -> n) table

let total_weight = List.fold_left (fun acc (_, w, _) -> acc + w) 0 table

let of_seed seed =
  let rng = Splitmix.of_seed seed in
  let pick = Splitmix.int rng total_weight in
  let rec find acc = function
    | [] -> assert false
    | (name, w, g) :: rest -> if pick < acc + w then (name, g) else find (acc + w) rest
  in
  let profile, g = find 0 table in
  (* Each case body draws from a split child, so adding a profile never
     perturbs the draws of existing ones. *)
  let body = Splitmix.split rng in
  let shape = match g with `Db f -> Db (f body) | `Lp f -> Lp (f body) in
  { seed; profile; shape }

let case_seed_of rng = Splitmix.fresh_seed (Splitmix.split rng)

let stream ~seed n =
  let root = Splitmix.of_seed seed in
  List.map of_seed (init_seq n (fun _ -> case_seed_of root))

let endo_count (c : db_case) =
  List.length (Problem.endogenous_tuples c.q c.db)
