"""chainlab: a numerical laboratory for 2D lattice Schrodinger operators
whose potential is constant along one lattice direction.

Import each name from the module that defines it.  Importing the package
itself loads none of them, nor numpy, so the command-line front end answers
--help and argument errors without loading numpy.
"""

__version__ = "0.1.0"
