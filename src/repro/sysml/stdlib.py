"""A miniature SysML v2 standard library.

Real SysML v2 ships a model library (``ScalarValues``, ``Base``, ...)
that every model can reference. We provide the subset the methodology's
models use: scalar value types and a few SI-ish attribute definitions.
Members of these packages are implicitly visible everywhere, mirroring
the pilot implementation's implicit library imports.
"""

SCALAR_VALUES_SOURCE = """
package ScalarValues {
    doc /* Scalar data value types, mirroring the SysML v2 model library. */
    abstract attribute def ScalarValue;
    attribute def Boolean :> ScalarValue;
    attribute def String :> ScalarValue;
    abstract attribute def NumericalValue :> ScalarValue;
    attribute def Number :> NumericalValue;
    attribute def Complex :> Number;
    attribute def Real :> Complex;
    attribute def Rational :> Real;
    attribute def Integer :> Rational;
    attribute def Natural :> Integer;
    attribute def Positive :> Natural;
    attribute def Double :> Real;
    attribute def Float :> Real;
}

package Base {
    doc /* Root abstractions: anything and datum. */
    abstract part def Anything;
    abstract attribute def DataValue;
}
"""

#: Packages whose members are visible without an explicit import.
IMPLICIT_LIBRARY_PACKAGES = ("ScalarValues", "Base")
