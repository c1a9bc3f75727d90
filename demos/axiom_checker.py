"""Checking the biquandle axioms of finite operation tables.

Run with: python3 demos/axiom_checker.py
"""

from biquandles import (
    FiniteBiquandle,
    check_axioms,
    finite_alexander_biquandle,
    finite_quaternionic_biquandle,
    parse_table_file,
)

print("linear tables on Z_5 with s=2, t=3:")
clean = finite_alexander_biquandle(5, 2, 3)
print(check_axioms(clean).render())
print()

# the table file format round-trips: `biq axioms --tables FILE` reads what
# render_tables writes
again = parse_table_file(clean.render_tables())
print("the same tables written out and read back:")
print("tables equal:", all((again.tables[op] == clean.tables[op]).all() for op in clean.tables))
print("all axioms pass:", check_axioms(again).all_pass)
print()

# corrupting a single entry breaks the round-trip axioms and the checker
# names a witness
tables = {op: clean.tables[op].copy() for op in ("ur", "lr", "ul", "ll")}
tables["ur"][0, 1] = (tables["ur"][0, 1] + 1) % 5
print("same tables with ur(0,1) corrupted:")
print(check_axioms(FiniteBiquandle(tables)).render())
print()

# the quaternion tables mod 3 satisfy only part of the axiom list; the
# checker reports the verdict as computed, counterexamples and all
print("quaternion tables mod 3 (81 elements):")
print(check_axioms(finite_quaternionic_biquandle(3)).render())
