"""The bound states one at a time, as validated QuantumNumbers, for tests that
check a state on its own."""

from diracctx.hydrogen import FINE_STRUCTURE_ALPHA, QuantumNumbers, state_table


def valid_states(n_max: int):
    """All bound states with n <= n_max, in the order of hydrogen.state_table."""
    columns = state_table(n_max, FINE_STRUCTURE_ALPHA)[:3]
    for n, kappa, twice_mj in zip(*(column.tolist() for column in columns)):
        yield QuantumNumbers(n=n, kappa=kappa, m_j=twice_mj / 2.0)
