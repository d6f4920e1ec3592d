(** Pre-instantiated solver stacks.

    {!Float_simplex}/{!Float_bb} are the production solvers; the exact
    variants run the identical algorithms over arbitrary-precision rationals
    and serve as correctness oracles in the test suite and for certifying
    LP-integrality claims on small instances.  {!Engine} erases the field
    for callers that pick it at run time. *)

module Float_simplex = Simplex.Make (Numeric.Field.Float_field)
module Exact_simplex = Simplex.Make (Numeric.Field.Rat_field)
module Float_bb = Branch_bound.Make (Numeric.Field.Float_field)
module Exact_bb = Branch_bound.Make (Numeric.Field.Rat_field)

(** One warm branch-and-bound session at either field, answering in floats.
    The float instance hands its arrays through untouched; the exact one
    runs in rationals and converts once per answer with
    {!Numeric.Rat.to_float}.  Integrality is decided inside the field, so an
    exact engine's integral flag is exact. *)
module Engine = struct
  type result = Float_bb.result
  type relaxation = Float_bb.relaxation

  module type S = sig
    type session

    val create : ?kernel:Basis.choice -> Frozen.t -> session

    val relax :
      Frozen.Delta.t -> session -> [ `Optimal of relaxation | `Infeasible ] * Branch_bound.work

    val solve : ?node_limit:int -> ?time_limit:float -> Frozen.Delta.t -> session -> result
  end

  module Float_engine : S = struct
    type session = Float_bb.session

    let create = Float_bb.create_session
    let relax delta s = Float_bb.relax ~delta s

    let solve ?node_limit ?time_limit delta s =
      Float_bb.solve_session ?node_limit ?time_limit ~delta s
  end

  module Exact_engine : S = struct
    type session = Exact_bb.session

    let create = Exact_bb.create_session
    let f = Numeric.Rat.to_float

    let relax delta s =
      match Exact_bb.relax ~delta s with
      | `Optimal { Exact_bb.objective; support; values; integral }, work ->
        ( `Optimal
            { Float_bb.objective = f objective; support; values = Array.map f values; integral },
          work )
      | `Infeasible, work -> (`Infeasible, work)

    let solve ?node_limit ?time_limit delta s =
      let r = Exact_bb.solve_session ?node_limit ?time_limit ~delta s in
      {
        Float_bb.status = r.status;
        objective = Option.map f r.objective;
        solution = Option.map (Array.map f) r.solution;
        nodes = r.nodes;
        root_objective = Option.map f r.root_objective;
        root_integral = r.root_integral;
        pivots = r.pivots;
        refactors = r.refactors;
      }
  end

  type t = E : (module S with type session = 's) * 's -> t

  let create ~exact ?kernel fz =
    if exact then E ((module Exact_engine), Exact_engine.create ?kernel fz)
    else E ((module Float_engine), Float_engine.create ?kernel fz)

  (** The LP relaxation under the delta, read out sparsely, with the
      integral-optimum flag and the simplex work it spent. *)
  let relax ?(delta = Frozen.Delta.empty) (E ((module M), s)) = M.relax delta s

  (** Branch-and-bound under the delta (see {!Branch_bound.Make.solve_session}). *)
  let solve ?node_limit ?time_limit ?(delta = Frozen.Delta.empty) (E ((module M), s)) =
    M.solve ?node_limit ?time_limit delta s
end
