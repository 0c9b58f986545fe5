// Assembled viscous operator: CSR assembly + SpMV back-end.
//
// This is the baseline the paper measures against: between 81 and 375
// nonzeros per row (average 192 for interior nodes), all streamed through
// the memory bus on every application (§III-D, Table I "Assembled").
#include "stokes/viscous_ops.hpp"

#include "fem/lattice_pattern.hpp"

namespace ptatin {

void viscous_element_matrix(const StructuredMesh& mesh,
                            const QuadCoefficients& coeff, Index e,
                            Real Ke[3 * kQ2NodesPerEl][3 * kQ2NodesPerEl]) {
  const auto& tab = q2_tabulation();
  ElementGeometry g;
  element_geometry(mesh, e, g);

  for (int a = 0; a < 3 * kQ2NodesPerEl; ++a)
    for (int b = 0; b < 3 * kQ2NodesPerEl; ++b) Ke[a][b] = 0.0;

  for (int q = 0; q < kQuadPerEl; ++q) {
    const Mat3& ga = g.gamma[q];
    const Real scale = g.wdetj[q] * coeff.eta(e, q);
    Real gphys[kQ2NodesPerEl][3];
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int r = 0; r < 3; ++r)
        gphys[i][r] = tab.dN[q][i][0] * ga[0 + r] +
                      tab.dN[q][i][1] * ga[3 + r] + tab.dN[q][i][2] * ga[6 + r];

    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int j = 0; j < kQ2NodesPerEl; ++j) {
        const Real gg = gphys[i][0] * gphys[j][0] + gphys[i][1] * gphys[j][1] +
                        gphys[i][2] * gphys[j][2];
        for (int c = 0; c < 3; ++c)
          for (int cp = 0; cp < 3; ++cp) {
            const Real v =
                scale * ((c == cp ? gg : Real(0)) + gphys[i][cp] * gphys[j][c]);
            Ke[3 * i + c][3 * j + cp] += v;
          }
      }
  }
}

CsrMatrix assemble_viscous_matrix(const StructuredMesh& mesh,
                                  const QuadCoefficients& coeff) {
  // Symbolic pattern in closed form (fem/lattice_pattern.hpp).
  const LatticePattern pattern = LatticePattern::q2_velocity(mesh);
  CsrMatrix a = pattern.matrix();
  const Index* rp = a.row_ptr().data();
  Real* va = a.values().data();

  // Numeric assembly: element colors prevent concurrent writes to a row and
  // fix the order of the additions into each entry (color order) at any
  // thread count. Entries start at +0.0 and never become -0.0, so adding
  // an exact-zero element entry leaves them unchanged: no zero test needed.
  for_each_element_colored(mesh, [&](Index e) {
    Real Ke[3 * kQ2NodesPerEl][3 * kQ2NodesPerEl];
    viscous_element_matrix(mesh, coeff, e, Ke);
    Index ei, ej, ek;
    mesh.element_ijk(e, ei, ej, ek);
    Index nodes[kQ2NodesPerEl];
    mesh.element_nodes(e, nodes);
    for (int a = 0; a < kQ2NodesPerEl; ++a) {
      const Index i = 2 * ei + a % 3, j = 2 * ej + (a / 3) % 3,
                  k = 2 * ek + a / 9;
      // The three component rows of a node have the same length.
      const Index row0 = rp[velocity_dof(nodes[a], 0)];
      const Index len = rp[velocity_dof(nodes[a], 1)] - row0;
      for (int b = 0; b < kQ2NodesPerEl; ++b) {
        const Index off = row0 + pattern.column_offset(
                                     i, j, k, 2 * ei + b % 3,
                                     2 * ej + (b / 3) % 3, 2 * ek + b / 9, 0);
        for (int c = 0; c < 3; ++c)
          for (int cp = 0; cp < 3; ++cp)
            va[off + c * len + cp] += Ke[3 * a + c][3 * b + cp];
      }
    }
  });
  return a;
}

AsmbViscousOperator::AsmbViscousOperator(const StructuredMesh& mesh,
                                         const QuadCoefficients& coeff,
                                         const DirichletBc* bc,
                                         const SubdomainEngine* engine)
    : ViscousOperatorBase(mesh, coeff, bc, 0, engine),
      a_(assemble_viscous_matrix(mesh, coeff)) {
  if (bc_ != nullptr) bc_->apply_to_matrix_symmetric(a_);
}

OperatorCostModel AsmbViscousOperator::cost_model() const {
  // §III-D analytic model: 4608 nnz/element => 2 flops each; 37248 B
  // streamed per element with perfect vector caching.
  return {9216.0, 37248.0, 37248.0};
}

} // namespace ptatin
