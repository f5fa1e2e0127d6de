(** Peephole circuit optimization.

    Routing inserts SWAPs mechanically; easy cancellations are left on the
    table when consecutive slices route back and forth.  This pass performs
    the standard local rewrites, iterated to a fixed point:

    - cancel adjacent involutions acting on the same operands
      (SWAP·SWAP, CX·CX, CZ·CZ, H·H, X·X, Y·Y, Z·Z);
    - cancel adjacent inverse pairs (S·Sdg, T·Tdg, either order);
    - fuse consecutive rotations on the same operands
      (Rz·Rz, Rx·Rx, Ry·Ry, CP·CP, RZZ·RZZ — angles add);
    - drop rotations with angle ≡ 0.

    "Adjacent" means no intervening gate touches the shared qubits, so the
    pass commutes gates on disjoint qubits past each other implicitly (it
    tracks the last pending gate per qubit).  Unitary equivalence is
    guaranteed (and statevector-checked in the tests). *)

val run : Qr_circuit.Circuit.t -> Qr_circuit.Circuit.t
(** Optimize to a fixed point.  The result has the same qubit count and
    acts identically on every state. *)
