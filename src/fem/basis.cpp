#include "fem/basis.hpp"

namespace ptatin {

void q2_eval(const Real xi[3], Real N[kQ2NodesPerEl]) {
  Real bx[3], by[3], bz[3];
  for (int a = 0; a < 3; ++a) {
    bx[a] = q2_basis_1d(a, xi[0]);
    by[a] = q2_basis_1d(a, xi[1]);
    bz[a] = q2_basis_1d(a, xi[2]);
  }
  for (int c = 0; c < 3; ++c)
    for (int b = 0; b < 3; ++b)
      for (int a = 0; a < 3; ++a)
        N[a + 3 * b + 9 * c] = bx[a] * by[b] * bz[c];
}

void q2_eval_deriv(const Real xi[3], Real dN[kQ2NodesPerEl][3]) {
  Real bx[3], by[3], bz[3], dx[3], dy[3], dz[3];
  for (int a = 0; a < 3; ++a) {
    bx[a] = q2_basis_1d(a, xi[0]);
    by[a] = q2_basis_1d(a, xi[1]);
    bz[a] = q2_basis_1d(a, xi[2]);
    dx[a] = q2_deriv_1d(a, xi[0]);
    dy[a] = q2_deriv_1d(a, xi[1]);
    dz[a] = q2_deriv_1d(a, xi[2]);
  }
  for (int c = 0; c < 3; ++c)
    for (int b = 0; b < 3; ++b)
      for (int a = 0; a < 3; ++a) {
        const int i = a + 3 * b + 9 * c;
        dN[i][0] = dx[a] * by[b] * bz[c];
        dN[i][1] = bx[a] * dy[b] * bz[c];
        dN[i][2] = bx[a] * by[b] * dz[c];
      }
}

void q1_eval(const Real xi[3], Real N[kQ1NodesPerEl]) {
  Real bx[2], by[2], bz[2];
  for (int a = 0; a < 2; ++a) {
    bx[a] = q1_basis_1d(a, xi[0]);
    by[a] = q1_basis_1d(a, xi[1]);
    bz[a] = q1_basis_1d(a, xi[2]);
  }
  for (int c = 0; c < 2; ++c)
    for (int b = 0; b < 2; ++b)
      for (int a = 0; a < 2; ++a)
        N[a + 2 * b + 4 * c] = bx[a] * by[b] * bz[c];
}

void q1_eval_deriv(const Real xi[3], Real dN[kQ1NodesPerEl][3]) {
  Real bx[2], by[2], bz[2], dx[2], dy[2], dz[2];
  for (int a = 0; a < 2; ++a) {
    bx[a] = q1_basis_1d(a, xi[0]);
    by[a] = q1_basis_1d(a, xi[1]);
    bz[a] = q1_basis_1d(a, xi[2]);
    dx[a] = q1_deriv_1d(a, xi[0]);
    dy[a] = q1_deriv_1d(a, xi[1]);
    dz[a] = q1_deriv_1d(a, xi[2]);
  }
  for (int c = 0; c < 2; ++c)
    for (int b = 0; b < 2; ++b)
      for (int a = 0; a < 2; ++a) {
        const int i = a + 2 * b + 4 * c;
        dN[i][0] = dx[a] * by[b] * bz[c];
        dN[i][1] = bx[a] * dy[b] * bz[c];
        dN[i][2] = bx[a] * by[b] * dz[c];
      }
}

namespace {

Q2Tabulation build_q2_tab() {
  Q2Tabulation t{};
  for (int q = 0; q < kQuadPerEl; ++q) {
    const auto p = QuadQ2::point(q);
    const Real xi[3] = {p[0], p[1], p[2]};
    q2_eval(xi, t.N[q]);
    q2_eval_deriv(xi, t.dN[q]);
    t.w[q] = QuadQ2::weight(q);
  }
  for (int q = 0; q < 3; ++q)
    for (int a = 0; a < 3; ++a) {
      t.B1[q][a] = q2_basis_1d(a, Gauss3::pts[q]);
      t.D1[q][a] = q2_deriv_1d(a, Gauss3::pts[q]);
    }
  return t;
}

Q1Tabulation build_q1_tab() {
  Q1Tabulation t{};
  for (int q = 0; q < QuadQ1::kPoints; ++q) {
    const auto p = QuadQ1::point(q);
    const Real xi[3] = {p[0], p[1], p[2]};
    q1_eval(xi, t.N[q]);
    q1_eval_deriv(xi, t.dN[q]);
    t.w[q] = QuadQ1::weight(q);
  }
  return t;
}

GeomTabulation build_geom_tab() {
  GeomTabulation t{};
  for (int q = 0; q < kQuadPerEl; ++q) {
    const auto p = QuadQ2::point(q);
    const Real xi[3] = {p[0], p[1], p[2]};
    q1_eval(xi, t.N[q]);
    q1_eval_deriv(xi, t.dN[q]);
  }
  return t;
}

} // namespace

const Q2Tabulation& q2_tabulation() {
  static const Q2Tabulation tab = build_q2_tab();
  return tab;
}

const Q1Tabulation& q1_tabulation() {
  static const Q1Tabulation tab = build_q1_tab();
  return tab;
}

const GeomTabulation& geom_tabulation() {
  static const GeomTabulation tab = build_geom_tab();
  return tab;
}

} // namespace ptatin
