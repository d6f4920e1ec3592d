(* rank_sparse: warm Session.responsibility for every endogenous tuple in
   some witness of a sparse 2-chain, in database order, pass after pass —
   the loop `resil rank` drives, one pass per end-to-end epoch.  The
   instance has a fixed join structure (Gen.shaped_chain2), so a run's
   figures do not hang on the shape one seed happens to draw.  Tuples in no
   witness are left out: they return No_contingency without a solve, and
   mixed in they would make the skip path the median. *)

open Relalg
open Resilience

let query = "R(x,y), S(y,z)"
let count = 800 (* per relation: 1600 tuples *)

(* The questions of an instance: its tuples in some witness, in database
   order. *)
let questions text =
  let db = Database_io.parse_string text in
  let q = Cq_parser.parse_with db query in
  let in_witness = Hashtbl.create 1024 in
  List.iter
    (fun w -> List.iter (fun t -> Hashtbl.replace in_witness t ()) (Eval.tuple_set w))
    (Eval.witnesses q db);
  Array.of_list
    (List.filter_map
       (fun info ->
         let t = info.Database.id in
         if Hashtbl.mem in_witness t then Some t else None)
       (Database.tuples db))

let make ~seed =
  let text = Gen.shaped_chain2 (Gen.rng seed 1) ~shape:1 ~count in
  let questions = questions text in
  let n = Array.length questions in
  let cold_sample = Work.sample_indices (Gen.rng seed 2) ~n 16 in
  (* Kept across set-ups: a fresh session asks the same questions in the
     same order and returns the same sets, so after the warm-up epoch the
     checks are digest lookups. *)
  let verified = Work.memo () in
  let agree, value_of = Work.consistent () in
  let setup () =
    let db = Work.load text in
    let q = Cq_parser.parse_with db query in
    let s = Session.create Problem.Set q db in
    let first = Session.responsibility s questions.(0) in
    let check t = function
      | Session.Solved a ->
        let set = a.Session.responsibility_set in
        Work.count_solve a.Session.rsp_stats;
        a.Session.rsp_value = Work.weight Problem.Set db set
        && agree t a.Session.rsp_value
        && verified t set (fun () -> Solve.verify_responsibility_set q db t set)
      | Session.Query_false | Session.No_contingency | Session.Budget_exhausted _ -> false
    in
    let asked = ref 0 in
    let next _ =
      let t = questions.(!asked mod n) in
      incr asked;
      let r = ref None in
      {
        Work.kind = "read";
        run =
          (fun () ->
            r := Some (Obs.Trace.with_span "session.question" (fun () -> Session.responsibility s t)));
        check =
          (fun () ->
            Work.tally.questions <- Work.tally.questions + 1;
            match !r with Some o -> check t o | None -> false);
      }
    in
    let first_ok () = check questions.(0) first in
    (* Warm against cold: a one-shot Solve per sampled tuple. *)
    let finish () =
      List.for_all
        (fun i ->
          let t = questions.(i) in
          let warm =
            match value_of t with
            | Some v -> Some v
            | None -> (
              match Session.responsibility s t with
              | Session.Solved a -> Some a.Session.rsp_value
              | _ -> None)
          in
          match Solve.responsibility Problem.Set q db t with
          | Solve.Solved a -> warm = Some a.Solve.rsp_value
          | _ -> false)
        cold_sample
    in
    { Work.next; first_ok; finish }
  in
  let programs () =
    let db = Database_io.parse_string text in
    [ { Work.sem = Problem.Set; q = Cq_parser.parse_with db query; db; kind = `Shared } ]
  in
  { Work.setup; programs; data = [ text ]; warmup = 1; burst_ops = 40; epoch_ops = n }
